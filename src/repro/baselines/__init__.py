"""The evaluation's comparison systems (Sec. 6).

- :mod:`repro.baselines.sgx_kvs` — the KVS inside an enclave with sealing
  but *no* rollback/forking protection ("SGX") — the paper's baseline and
  the system whose silent rollback vulnerability motivates LCM;
- :mod:`repro.baselines.tmc` — trusted monotonic counter: immediate
  rollback detection at a ~60 ms/increment cost ("SGX + TMC", Sec. 6.5).

The figures' "Native" and "Redis TLS" rows have no program here: they are
cost-model lines (:mod:`repro.perf.costs`).
"""

from repro.baselines.sgx_kvs import SgxKvsClient, SgxKvsProgram, make_sgx_kvs_factory
from repro.baselines.tmc import TmcKvsProgram, TrustedMonotonicCounter, make_tmc_kvs_factory

__all__ = [
    "SgxKvsProgram",
    "SgxKvsClient",
    "make_sgx_kvs_factory",
    "TrustedMonotonicCounter",
    "TmcKvsProgram",
    "make_tmc_kvs_factory",
]
