"""The Apache HTTP server analog (2.0.55, prefork MPM, mod_ssl).

Prefork mechanics drive the Apache copy dynamics in Figures 6 and
21-28:

* the master loads the server key once (mod_ssl → ``d2i_PrivateKey``)
  and pre-forks a pool of workers;
* the pool grows with load (up to ``max_clients``) and is trimmed back
  to ``max_spare`` when load drops — each reaped worker's heap drains
  uncleared into free memory;
* every worker that has served at least one TLS handshake carries its
  own Montgomery p/q cache (two key-part copies in *its* heap, because
  writing the cache broke COW on those pages) — unless the key was
  aligned, in which case the cache is disabled and all workers share
  the master's single key page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.core.memory_align import rsa_memory_align
from repro.core.protection import ProtectionLevel, ProtectionPolicy, policy_for
from repro.crypto.randsrc import DeterministicRandom
from repro.errors import ConnectionRejectedError, ReproError, WorkloadError
from repro.ssl.d2i import d2i_privatekey
from repro.ssl.engine import rsa_private_operation
from repro.ssl.rsa_st import RsaStruct

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process

_RESPONSE_CHUNK = 8 * 1024

#: Per-worker connection/SSL buffer pool sizes.  Workers allocate this
#: at spawn; the variability decides how much of a reaped worker's
#: footprint the replacement immediately recycles — the remainder is
#: where the paper's Apache attacks find stale key copies.
_WORKER_POOL_CHOICES = (8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024)


@dataclass
class ApacheConfig:
    """prefork MPM knobs (scaled-down defaults)."""

    key_path: str = "/etc/apache2/ssl/server.key"
    start_servers: int = 4
    max_spare_servers: int = 6
    max_clients: int = 20
    #: prefork's MaxRequestsPerChild: a worker exits (pages drain,
    #: uncleared, into free memory) and is replaced after this many
    #: requests.  This is why Apache sheds key copies into unallocated
    #: memory even while traffic is steady.
    max_requests_per_child: int = 10
    policy: ProtectionPolicy = field(
        default_factory=lambda: policy_for(ProtectionLevel.NONE)
    )

    @classmethod
    def for_policy(
        cls, policy: ProtectionPolicy, key_path: str = "/etc/apache2/ssl/server.key"
    ) -> "ApacheConfig":
        return cls(key_path=key_path, policy=policy)


class ApacheWorker:
    """One prefork worker process."""

    def __init__(self, process: "Process", rsa: RsaStruct) -> None:
        self.process = process
        self.rsa = rsa
        self.requests_served = 0
        #: Per-request arena allocations (pools in real Apache live
        #: until the connection — and much of them until the child —
        #: dies).  Accumulating them is what pushes the worker's
        #: key-bearing Montgomery page deep into the free order at
        #: death, past the hot list, into attack-visible free memory.
        self.arena: list = []

    @property
    def alive(self) -> bool:
        return self.process.alive


class ApacheServer:
    """Master + worker pool."""

    def __init__(
        self,
        kernel: "Kernel",
        config: Optional[ApacheConfig] = None,
        rng: Optional[DeterministicRandom] = None,
    ) -> None:
        self.kernel = kernel
        self.config = config if config is not None else ApacheConfig()
        self.rng = rng if rng is not None else DeterministicRandom(0)
        self.master: Optional["Process"] = None
        self.master_rsa: Optional[RsaStruct] = None
        self.workers: List[ApacheWorker] = []
        #: Which key/service generation this master serves; bumped by
        #: the supervisor on every restart.
        self.incarnation = 0
        #: Hard kills of the whole service (see :meth:`crash`).
        self.crashes = 0
        self.total_requests = 0
        self._next_worker = 0
        #: Requests failed by a fault; the worker was recycled.
        self.rejected_requests = 0
        #: Worker spawns that faulted (the pool runs smaller until the
        #: next successful spawn — prefork's own degradation mode).
        self.spawn_failures = 0
        #: Rejection paths whose own cleanup faulted.
        self.cleanup_failures = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self.master is not None and self.master.alive

    def start(self) -> None:
        """/etc/init.d/apache2 start"""
        if self.running:
            raise WorkloadError("apache is already running")
        try:
            self.master = self.kernel.create_process("apache2")
            policy = self.config.policy
            # mod_ssl's ssl_server_import_key path.
            self.master_rsa = d2i_privatekey(
                self.master,
                self.config.key_path,
                align=policy.lib_align,
                use_nocache=policy.o_nocache,
                scrub_buffers=policy.align_on_load,
            )
            if policy.app_align:
                # The paper adds RSA_memory_align() to mod_ssl directly.
                rsa_memory_align(self.master_rsa)
            if policy.hw_vault:
                from repro.core.hardware import offload_to_vault

                offload_to_vault(self.master_rsa)
        except ReproError:
            # A faulted startup unwinds completely; the error propagates
            # so the operator can retry.
            if self.master is not None and self.master.alive:
                self.kernel.exit_process(self.master)
            self.master = None
            self.master_rsa = None
            raise
        for _ in range(self.config.start_servers):
            # A fault here just starts the pool smaller; ensure_pool
            # and the recycle path regrow it.
            self._spawn_worker_best_effort()

    def stop(self, graceful: bool = True) -> None:
        """/etc/init.d/apache2 stop.

        Graceful shutdown runs mod_ssl's cleanup (``RSA_free``), which
        scrubs the master's key parts; ``graceful=False`` models a
        crash, leaving everything in free memory uncleared.
        """
        for worker in list(self.workers):
            self._reap_worker(worker)
        if self.master is not None and self.master.alive:
            if graceful and self.master_rsa is not None and not self.master_rsa.freed:
                self.master_rsa.rsa_free()
            self.kernel.exit_process(self.master)
        self.master = None
        self.master_rsa = None

    def crash(self) -> List[int]:
        """``kill -9`` of the whole service tree.

        No mod_ssl cleanup runs in any process: workers and master die
        with their key copies (Montgomery caches included) intact in
        their heaps, exit code 137.  The object is left stopped and
        consistent so a supervisor can :meth:`start` a fresh
        incarnation.  Returns the pids that died, oldest first.
        """
        killed: List[int] = []
        for worker in list(self.workers):
            if worker.process.alive:
                self.kernel.exit_process(worker.process, code=137)
                killed.append(worker.process.pid)
        self.workers.clear()
        if self.master is not None and self.master.alive:
            self.kernel.exit_process(self.master, code=137)
            killed.append(self.master.pid)
        self.master = None
        self.master_rsa = None
        self.crashes += 1
        return sorted(killed)

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> ApacheWorker:
        assert self.master is not None and self.master_rsa is not None
        try:
            child = self.kernel.fork(self.master)
        except ReproError as exc:
            # kernel.fork already unwound the half-built child.
            raise ConnectionRejectedError(f"worker fork failed: {exc}") from exc
        try:
            # Per-worker SSL/connection buffer pool, resident immediately.
            pool_bytes = self.rng.choice(_WORKER_POOL_CHOICES)
            pool = child.heap.malloc(pool_bytes)
            page_size = self.kernel.physmem.page_size
            for offset in range(0, pool_bytes, page_size):
                child.mm.write(pool + offset, self.rng.randbytes(32))
            worker = ApacheWorker(child, self.master_rsa.view_in(child))
        except ReproError as exc:
            if child.alive:
                self.kernel.exit_process(child)
            raise ConnectionRejectedError(f"worker setup failed: {exc}") from exc
        self.workers.append(worker)
        return worker

    def _spawn_worker_best_effort(self) -> Optional[ApacheWorker]:
        try:
            return self._spawn_worker()
        except ConnectionRejectedError:
            self.spawn_failures += 1
            return None

    def _reap_worker(self, worker: ApacheWorker) -> None:
        if worker.process.alive:
            self.kernel.exit_process(worker.process)
        if worker in self.workers:
            self.workers.remove(worker)

    def ensure_pool(self, concurrent: int) -> None:
        """Grow the pool for ``concurrent`` in-flight connections and
        trim idle workers beyond ``max_spare_servers`` when load drops."""
        if not self.running:
            raise WorkloadError("apache is not running")
        target = min(
            max(concurrent, self.config.start_servers), self.config.max_clients
        )
        while len(self.workers) < target:
            self._spawn_worker()
        ceiling = max(concurrent, self.config.max_spare_servers)
        while len(self.workers) > ceiling:
            self._reap_worker(self.workers[-1])

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def handle_request(self, response_bytes: int = 64 * 1024) -> ApacheWorker:
        """One HTTPS request: TLS handshake + response transfer, served
        by the next worker round-robin."""
        if not self.running:
            raise WorkloadError("apache is not running")
        if not self.workers:
            self.ensure_pool(1)
        worker = self.workers[self._next_worker % len(self.workers)]
        self._next_worker += 1
        faults = self.kernel.faults
        if faults is not None and faults.tick("app.kill"):
            # SIGKILL mid-request: no mod_ssl cleanup runs; only the
            # kernel's unmap/free clearing protects the dead worker's
            # Montgomery cache pages.
            self.rejected_requests += 1
            self._reap_worker(worker)
            self._spawn_worker_best_effort()
            raise ConnectionRejectedError(
                f"worker pid {worker.process.pid} killed mid-request"
            )
        try:
            self._tls_handshake(worker)
            self._send_response(worker, response_bytes)
        except ReproError as exc:
            self._reject_request(worker)
            raise ConnectionRejectedError(f"request failed: {exc}") from exc
        worker.requests_served += 1
        self.total_requests += 1
        if (
            self.config.max_requests_per_child
            and worker.requests_served >= self.config.max_requests_per_child
        ):
            # MaxRequestsPerChild reached: recycle the worker.
            self._reap_worker(worker)
            self._spawn_worker_best_effort()
        return worker

    def _reject_request(self, worker: ApacheWorker) -> None:
        """mod_ssl's fatal-request path: scrub the worker's own key
        state (its Montgomery cache — the BIGNUMs belong to the
        master), recycle it, and try to keep the pool at strength."""
        self.rejected_requests += 1
        try:
            worker.rsa.drop_mont(clear=True)
        except ReproError:
            self.cleanup_failures += 1
        self._reap_worker(worker)
        self._spawn_worker_best_effort()

    def _tls_handshake(self, worker: ApacheWorker) -> None:
        rsa = worker.rsa
        premaster = self.rng.randrange(2, rsa.n - 1)
        ciphertext = pow(premaster, rsa.e, rsa.n)  # client side
        recovered = rsa_private_operation(
            worker.rsa, ciphertext, known=premaster
        )
        if recovered != premaster:
            raise WorkloadError("premaster secret mismatch")
        self.kernel.clock.charge_connection_setup()

    def _send_response(self, worker: ApacheWorker, response_bytes: int) -> None:
        process = worker.process
        remaining = response_bytes
        while remaining > 0:
            chunk = min(remaining, _RESPONSE_CHUNK)
            buf = process.heap.malloc(chunk)
            process.mm.write(buf, self.rng.randbytes(min(chunk, 512)))
            process.heap.free(buf, clear=False)
            remaining -= chunk
        # Request-pool allocation that survives until the child dies.
        arena_chunk = process.heap.malloc(_RESPONSE_CHUNK)
        page_size = self.kernel.physmem.page_size
        for offset in range(0, _RESPONSE_CHUNK, page_size):
            process.mm.write(arena_chunk + offset, self.rng.randbytes(32))
        worker.arena.append(arena_chunk)
        self.kernel.clock.charge_transfer(response_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return (
            f"ApacheServer({state}, workers={len(self.workers)}, "
            f"policy={self.config.policy.level.value})"
        )
