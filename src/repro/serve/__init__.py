"""repro.serve — the HTTP/JSON serving layer.

Puts an admission host on the network: a pure-asyncio gateway
(:class:`AdmissionGateway`) with per-client rate limiting, tiered
timeouts, a server-side retry budget, graceful draining shutdown, and
structured redacting logs — plus the seeded socket-level load
generator (:mod:`repro.serve.loadgen`) that exercises it.
"""

from repro.serve.backpressure import RetryBudget, TokenBucket
from repro.serve.gateway import (
    AdmissionGateway,
    DriverBackend,
    GatewayConfig,
    HostBackend,
    make_backend,
    report_document,
    serve_forever,
)
from repro.serve.http import HttpError, HttpRequest, HttpResponse
from repro.serve.loadgen import (
    GatewayClient,
    LoadgenResult,
    materialize,
    run_load,
)
from repro.serve.logs import REDACTED, StructuredLog, redact

__all__ = [
    "AdmissionGateway",
    "DriverBackend",
    "GatewayClient",
    "GatewayConfig",
    "HostBackend",
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "LoadgenResult",
    "REDACTED",
    "RetryBudget",
    "StructuredLog",
    "TokenBucket",
    "make_backend",
    "materialize",
    "redact",
    "report_document",
    "run_load",
    "serve_forever",
]
