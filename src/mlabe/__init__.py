"""Multi-layered CP-ABE toolkit and value-chain data-exchange harness.

Library layers, bottom to top: ``policy`` (grammar and satisfaction),
``abe`` (the CP-ABE scheme), ``hybrid`` (verified key
encapsulation + AEAD payload), ``multilayer`` (removable policy layers),
``exchange`` (roles, stores, transport), ``bench``/``cli`` (harness).
"""

from .abe import (
    DEV_BACKEND_ID,
    MasterKeyPair,
    MasterPublicKey,
    MasterSecretKey,
    UserSecretKey,
    abe_decrypt,
    abe_encrypt,
    extract_header,
    extract_policy,
    keygen,
    setup,
)
from .containers import (
    AbeCiphertext,
    AesGcmRecord,
    HybridCiphertext,
    LayeredAbeCiphertext,
)
from .errors import (
    AeadTagFailure,
    ConfigError,
    DecryptError,
    EmptyAttributeSet,
    EmptyPlaintext,
    EmptyPolicyError,
    EmptyPolicyList,
    EngineUnreachable,
    EntropyFailure,
    ExchangeError,
    FoCheckFailed,
    KeepExceedsLayers,
    MalformedCiphertext,
    MalformedLayer,
    MessageTooLong,
    MissingTimestamp,
    MlabeError,
    NotFound,
    PolicyError,
    PolicySyntaxError,
    PolicyUnsatisfied,
    StoreFailure,
    Unauthorized,
)
from .hybrid import encapsulation_randomness, fo_decrypt, hybrid_encrypt
from .multilayer import (
    ENGINE_UPDATE_ATTRIBUTE,
    add_layers,
    augment_for_engine,
    layered_decrypt,
    peel_layers,
    update_outer_layers,
)
from .policy import (
    AccessPolicy,
    And,
    AttributeSet,
    Cmp,
    Leaf,
    Or,
    TIMESTAMP_ATTRIBUTE,
    parse_policy,
    satisfies,
)

__version__ = "0.1.0"
