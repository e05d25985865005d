"""Runtime policies for the simulator's hot path.

Two orthogonal knobs, both selected through
:class:`~repro.fl.config.RunConfig`:

``execution_backend`` — *how* the round's participants are trained:

* ``"serial"`` (default) — one shared model instance, clients trained one
  after another in the server process (the seed behavior), from the
  second task on by a per-call helper thread one client ahead of the
  caller's ``deliver``;
* ``"process"`` — fork-ed worker processes.  The frozen global
  parameters/buffers are shipped **once per round** through an anonymous
  shared mapping the workers inherited at the fork; each worker owns its
  own model replica and :class:`~repro.fl.client.LocalTrainer`, and
  writes its deltas into a second such mapping.  A worker that dies
  mid-dispatch raises :class:`~repro.runtime.backends.WorkerLostError`.

Both backends produce **bit-identical** training results for the same
seed, with no opt-in exception: every client trains through one
:class:`~repro.fl.client.LocalTrainer` call, its mini-batch stream comes
from its own named RNG (``RngFactory(f"client/{cid}/round/{t}")``), so
per-client results are independent of execution order, and every backend
*delivers* each result to the round (``run_clients(tasks, params, buffers,
deliver)``: one ``deliver(result)`` per task, in task order, on the calling
thread), which compresses it on the spot — the same deterministic order
regardless of backend.  Serial delivers each result as it lands, so at most
two dense deltas are alive; process delivers a dispatch's results once the
dispatch returns, as views into its shared result ring.

``dtype`` — *in what precision* the whole run executes: ``"float64"``
(default, the seed behavior) or ``"float32"`` (one :func:`resolve_dtype`
gate, see :mod:`repro.runtime.dtype`).  The
policy is threaded through model construction (every
``Conv2d``/``Linear``/norm layer), :class:`~repro.nn.flat.FlatParamView`,
local training (inputs are cast once per batch), the compression
strategies and the aggregation path, so a float32 run never silently
up-casts back to float64 in the hot loop.
On memory-bandwidth-bound numpy kernels float32 is a ~1.5–2×
speedup over float64.
"""

from repro.runtime.backends import (
    BACKENDS,
    ClientResult,
    ClientTask,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    WorkerLostError,
    WorkerSpec,
    create_backend,
)
from repro.runtime.dtype import DTYPE_NAMES, cast_model_dtype, resolve_dtype

__all__ = [
    "BACKENDS",
    "ClientResult",
    "ClientTask",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "WorkerLostError",
    "WorkerSpec",
    "create_backend",
    "DTYPE_NAMES",
    "cast_model_dtype",
    "resolve_dtype",
]
