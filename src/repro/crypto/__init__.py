"""From-scratch cryptographic substrate.

The real Keylime leans on OpenSSL for RSA signatures and X.509
certificate chains; this reproduction implements the minimal equivalents
in pure Python so the repository has no dependencies beyond the standard
library and the scientific stack:

* :mod:`repro.crypto.rsa` -- RSA key generation (a sieved Miller-Rabin
  prime search) and PKCS#1 v1.5 signatures over SHA-256.
* :mod:`repro.crypto.certs` -- a minimal certificate structure with
  issuer signatures and chain verification, enough to model the TPM
  manufacturer CA -> endorsement key -> attestation key trust chain.

These primitives are *simulation-grade*: deterministic key generation
from a seeded RNG is a feature here (reproducible experiments), not a
bug, and key sizes default to 1024 bits to keep test suites fast.  Do
not reuse this code outside the simulation.
"""

from repro.crypto.certs import Certificate, CertificateAuthority, verify_chain
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair

__all__ = [
    "Certificate",
    "CertificateAuthority",
    "RsaKeyPair",
    "RsaPublicKey",
    "generate_keypair",
    "verify_chain",
]
