"""The OpenSSH server analog (OpenSSH 4.3p2-era behaviour).

Baseline behaviour (what the paper attacks):

* the listener loads the host key at startup (``d2i_PrivateKey``,
  leaving stale PEM/DER buffers in its heap);
* **every incoming connection forks a child that re-executes itself**
  and therefore re-reads the host key from scratch — a full fresh set
  of key copies per connection;
* the child performs the RSA private operation for session-key
  establishment (building its Montgomery p/q cache), moves the session
  data, then exits — its pages, key copies and all, drain uncleared
  into the free-page pool.

Protected behaviour (the paper's §5.1 deployment) starts the server
with the undocumented ``-r`` option (no re-exec), so children inherit
the single aligned key page copy-on-write and never duplicate it.
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

#: Session-layer scratch a connection keeps allocated until it closes.
#: Real sessions vary (channel buffers scale with window sizes); the
#: variability matters: it decides whether a dying child's key-bearing
#: heap page is among the last frames freed (instantly recycled via the
#: per-CPU hot list) or escapes into the slow free pool, where the
#: paper's scans find it as an "unallocated memory" copy.
_SESSION_BUFFER_CHOICES = (8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024)
#: Transfer chunk granularity for heap churn.
_CHURN_CHUNK = 8 * 1024


@dataclass
class SshdConfig:
    """Server deployment knobs."""

    key_path: str = "/etc/ssh/ssh_host_rsa_key"
    #: The -r option: do not re-execute sshd for each connection.
    no_reexec: bool = False
    policy: ProtectionPolicy = field(
        default_factory=lambda: policy_for(ProtectionLevel.NONE)
    )

    @classmethod
    def for_policy(cls, policy: ProtectionPolicy, key_path: str = "/etc/ssh/ssh_host_rsa_key") -> "SshdConfig":
        """The paper's deployment for a given protection policy."""
        return cls(key_path=key_path, no_reexec=policy.sshd_no_reexec, policy=policy)


class SshConnection:
    """One established SSH connection, handled by a forked child."""

    def __init__(
        self,
        server: "OpenSSHServer",
        child: "Process",
        rsa: RsaStruct,
        session_buffer: int,
        owns_key: bool = True,
    ) -> None:
        self.server = server
        self.child = child
        self.rsa = rsa
        self._session_buffer = session_buffer
        #: True when the child re-exec'ed and owns a full key copy;
        #: False for -r children, whose RsaStruct is a COW *view* of the
        #: master's key (freeing it would corrupt the master).
        self.owns_key = owns_key
        self.closed = False
        self.bytes_transferred = 0

    def transfer(self, num_bytes: int, rng: DeterministicRandom) -> None:
        """Move ``num_bytes`` of payload (scp traffic).

        Charges network+crypto time and churns the child's heap the way
        real packet buffers do — allocating, filling and freeing chunks
        that may or may not overwrite stale secrets.
        """
        if self.closed:
            raise WorkloadError("transfer on closed connection")
        kernel = self.server.kernel
        faults = kernel.faults
        remaining = num_bytes
        while remaining > 0:
            if faults is not None and faults.tick("app.kill"):
                # SIGKILL mid-transfer: no cleanup handler runs; only
                # the kernel's unmap/free path decides what the dead
                # child's pages still disclose.
                self.abort(scrub=False)
                raise ConnectionRejectedError(
                    f"child pid {self.child.pid} killed mid-transfer"
                )
            chunk = min(remaining, _CHURN_CHUNK)
            try:
                buf = self.child.heap.malloc(chunk)
                self.child.mm.write(buf, rng.randbytes(min(chunk, 512)))
                self.child.heap.free(buf, clear=False)
            except ReproError as exc:
                self.abort()
                raise ConnectionRejectedError(
                    f"transfer failed: {exc}"
                ) from exc
            remaining -= chunk
        kernel.clock.charge_transfer(num_bytes)
        self.bytes_transferred += num_bytes

    def abort(self, scrub: bool = True) -> None:
        """Tear the connection down after a fault.

        ``scrub=True`` is sshd's fatal-error cleanup path: the child
        scrubs the key state it *owns* (a full re-exec'ed copy is
        RSA_free'd; a -r view only clears its private Montgomery
        cache — the underlying BIGNUMs belong to the master) before
        exiting.  ``scrub=False`` models SIGKILL: no handler runs and
        only kernel-level clearing stands between the dead child's
        pages and the free pool.
        """
        if self.closed:
            return
        if scrub:
            try:
                if self.owns_key:
                    if not self.rsa.freed:
                        self.rsa.rsa_free()
                else:
                    self.rsa.drop_mont(clear=True)
            except ReproError:
                # Cleanup itself faulted (e.g. ENOMEM breaking COW for
                # the scrub write); the kernel backstop is now the only
                # protection, which the chaos campaign quantifies.
                self.server.cleanup_failures += 1
        if self.child.alive:
            self.server.kernel.exit_process(self.child)
        self.closed = True
        if self in self.server.connections:
            self.server.connections.remove(self)
        self.server.dropped_connections += 1

    def close(self) -> None:
        """Tear the connection down; the child exits (pages uncleared
        unless the kernel is patched)."""
        if self.closed:
            return
        self.server.kernel.exit_process(self.child)
        self.closed = True
        if self in self.server.connections:
            self.server.connections.remove(self)


class OpenSSHServer:
    """The sshd listener plus its per-connection children."""

    def __init__(
        self,
        kernel: "Kernel",
        config: Optional[SshdConfig] = None,
        rng: Optional[DeterministicRandom] = None,
    ) -> None:
        self.kernel = kernel
        self.config = config if config is not None else SshdConfig()
        self.rng = rng if rng is not None else DeterministicRandom(0)
        self.master: Optional["Process"] = None
        self.master_rsa: Optional[RsaStruct] = None
        self.connections: List[SshConnection] = []
        #: Which key/service generation this listener serves; the
        #: supervisor bumps it on every restart so post-mortem audits
        #: can name the dead generation they are scanning for.
        self.incarnation = 0
        #: Hard kills of the whole service (see :meth:`crash`).
        self.crashes = 0
        self.total_connections = 0
        #: Connections refused during setup (fork/exec/key-load fault).
        self.rejected_connections = 0
        #: Established connections torn down mid-session by a fault.
        self.dropped_connections = 0
        #: Abort paths whose own cleanup faulted (kernel backstop only).
        self.cleanup_failures = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self.master is not None and self.master.alive

    def start(self) -> None:
        """/etc/init.d/sshd start

        A fault during startup (ENOMEM spawning the listener, an I/O
        error loading the host key) unwinds completely: the master
        exits, the server stays stopped, and the error propagates so
        the operator can retry.
        """
        if self.running:
            raise WorkloadError("sshd is already running")
        try:
            self.master = self.kernel.create_process("sshd")
            self.master_rsa = self._load_key(self.master)
        except ReproError:
            if self.master is not None and self.master.alive:
                self.kernel.exit_process(self.master)
            self.master = None
            self.master_rsa = None
            raise

    def _load_key(self, process: "Process") -> RsaStruct:
        policy = self.config.policy
        rsa = d2i_privatekey(
            process,
            self.config.key_path,
            align=policy.lib_align,
            use_nocache=policy.o_nocache,
            scrub_buffers=policy.align_on_load,
        )
        if policy.app_align:
            # The application-level deployment: authfile.c calls
            # RSA_memory_align() right after key_load_private_pem().
            rsa_memory_align(rsa)
        if policy.hw_vault:
            from repro.core.hardware import offload_to_vault

            offload_to_vault(rsa)
        return rsa

    def stop(self, graceful: bool = True) -> None:
        """/etc/init.d/sshd stop — closes every connection first.

        A graceful stop runs sshd's cleanup path, which ends in
        ``RSA_free`` (OpenSSL 0.9.7 ``BN_clear_free``s the private
        components), so the master's own key copies are scrubbed.
        ``graceful=False`` models a crash/kill -9: nothing is cleared —
        the scenario behind the paper's caveat that application- and
        library-level solutions need "special care ... before the
        application itself dies".
        """
        for connection in list(self.connections):
            connection.close()
        if self.master is not None and self.master.alive:
            if graceful and self.master_rsa is not None and not self.master_rsa.freed:
                self.master_rsa.rsa_free()
            self.kernel.exit_process(self.master)
        self.master = None
        self.master_rsa = None

    def crash(self) -> List[int]:
        """``kill -9`` of the whole service tree — the restartable-
        listener contract's failure entry point.

        No cleanup handler runs anywhere: children and master exit with
        their heaps intact (code 137), so only kernel-level clearing
        stands between every key copy of this incarnation and the free
        pool.  The server object is left stopped and internally
        consistent — stale connection bookkeeping is reaped — so a
        supervisor can :meth:`start` a fresh incarnation afterwards.
        Returns the pids that died, oldest first.
        """
        killed: List[int] = []
        for connection in list(self.connections):
            if connection.child.alive:
                self.kernel.exit_process(connection.child, code=137)
                killed.append(connection.child.pid)
            connection.closed = True
        self.connections.clear()
        if self.master is not None and self.master.alive:
            self.kernel.exit_process(self.master, code=137)
            killed.append(self.master.pid)
        self.master = None
        self.master_rsa = None
        self.crashes += 1
        return sorted(killed)

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    def open_connection(self) -> SshConnection:
        """Accept one client: fork (+re-exec unless -r), key exchange.

        Any fault while setting the connection up rejects *that
        connection only*: the half-built child scrubs what it owns and
        exits, and :class:`ConnectionRejectedError` tells the client to
        try again — the listener keeps serving.
        """
        if not self.running:
            raise WorkloadError("sshd is not running")
        assert self.master is not None and self.master_rsa is not None
        try:
            child = self.kernel.fork(self.master)
        except ReproError as exc:
            # kernel.fork already unwound the half-built child.
            self.rejected_connections += 1
            raise ConnectionRejectedError(f"fork failed: {exc}") from exc
        owns_key = not self.config.no_reexec
        rsa: Optional[RsaStruct] = None
        faults = self.kernel.faults
        try:
            if faults is not None and faults.tick("app.kill"):
                raise ConnectionRejectedError(
                    f"child pid {child.pid} killed during setup"
                )
            if self.config.no_reexec:
                rsa = self.master_rsa.view_in(child)
            else:
                # Stock sshd re-executes itself per connection: fresh
                # address space, key re-read from the PEM file.
                self.kernel.exec_replace(child)
                rsa = self._load_key(child)

            self._key_exchange(child, rsa)

            buffer_bytes = self.rng.choice(_SESSION_BUFFER_CHOICES)
            session_buffer = child.heap.malloc(buffer_bytes)
            # Touch every page so the buffer is actually resident.
            page_size = self.kernel.physmem.page_size
            for offset in range(0, buffer_bytes, page_size):
                child.mm.write(session_buffer + offset, self.rng.randbytes(32))
        except ReproError as exc:
            self._abort_setup(child, rsa, owns_key)
            self.rejected_connections += 1
            if isinstance(exc, ConnectionRejectedError):
                raise
            raise ConnectionRejectedError(
                f"connection setup failed: {exc}"
            ) from exc
        connection = SshConnection(
            self, child, rsa, session_buffer, owns_key=owns_key
        )
        self.connections.append(connection)
        self.total_connections += 1
        return connection

    def _abort_setup(
        self, child: "Process", rsa: Optional[RsaStruct], owns_key: bool
    ) -> None:
        """Unwind a connection that faulted before it was established."""
        try:
            if rsa is not None:
                if owns_key:
                    if not rsa.freed:
                        rsa.rsa_free()
                else:
                    rsa.drop_mont(clear=True)
        except ReproError:
            self.cleanup_failures += 1
        if child.alive:
            self.kernel.exit_process(child)

    def _key_exchange(self, child: "Process", rsa: RsaStruct) -> None:
        """RSA key exchange: client encrypts a secret to the host key,
        the child recovers it with the private operation."""
        secret = self.rng.randrange(2, rsa.n - 1)
        ciphertext = pow(secret, rsa.e, rsa.n)  # client-side, not charged
        recovered = rsa_private_operation(rsa, ciphertext, known=secret)
        if recovered != secret:
            raise WorkloadError("session-key decryption mismatch")
        self.kernel.clock.charge_connection_setup()

    def run_connection_cycle(
        self, transfer_bytes: int = 100 * 1024
    ) -> SshConnection:
        """Open → transfer → close, one full scp-like session."""
        connection = self.open_connection()
        # Reviewed: the session *is* the hold — the child keeps its key
        # copies for the transfer by design, and bounding that exposure
        # is the job of the protection levels KeySpan measures.
        connection.transfer(transfer_bytes, self.rng)  # keylint: ignore[long-lived-secret]
        connection.close()
        return connection

    def set_concurrency(self, target: int) -> None:
        """Open/close connections until exactly ``target`` are live."""
        while len(self.connections) > target:
            self.connections[-1].close()
        while len(self.connections) < target:
            self.open_connection()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return (
            f"OpenSSHServer({state}, connections={len(self.connections)}, "
            f"policy={self.config.policy.level.value})"
        )
