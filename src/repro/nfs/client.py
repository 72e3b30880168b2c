"""The PA-NFS client: a mounted remote volume with client-side versioning.

The client mounts the server's export as :class:`NFSVolume`, a
volume-like object the local VFS and PASSv2 observer use exactly like a
local PASS volume:

* the namespace is proxied lazily -- directory entries fetch from the
  server on first lookup (:class:`RemoteEntries`), and entry mutations
  (create/rename/unlink) propagate back as LINK/UNLINK operations;
* reads take OP_PASSREAD and return the exact (pnode, version) read;
* writes gather the records the local analyzer/distributor produced
  (buffered in :class:`RemoteLasagna`) and ship them *with* the data --
  one OP_PASSWRITE when everything fits in a wire block, else an
  OP_BEGINTXN / OP_PASSPROV* / OP_PASSWRITE transaction;
* ``pass_freeze`` happens locally: the proxy version bumps immediately
  (no server round trip on the read path) and a FREEZE record rides to
  the server with the next write, keeping freeze/write ordering.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import FileNotFound, StalePnodeVersion
from repro.core.dpapi import PassObject
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, Bundle, ProvenanceRecord
from repro.kernel.vfs import Inode
from repro.nfs.network import Network
from repro.nfs.server import NFSServer
from repro.storage import codec
from repro.system import System

#: Approximate per-operation wire header (RPC + compound op framing).
_HEADER_BYTES = 120


class ProxyInode(Inode):
    """Client-side image of one server inode."""

    def __init__(self, volume: "NFSVolume", ino: int, kind: str,
                 pnode: int, server_ino: int, size: int = 0,
                 version: int = 0):
        super().__init__(volume, ino, kind, pnode)
        self.server_ino = server_ino
        self._size = size
        self.version = version
        self.data = None                       # data lives on the server
        if kind == Inode.DIR:
            self.entries = RemoteEntries(volume, self)

    @property
    def size(self) -> int:
        return self._size

    def note_size(self, size: int) -> None:
        self._size = size


class RemoteEntries(dict):
    """Directory entries that fault in from the server on lookup and
    push mutations back out.

    Keys are names, values are *client* inode numbers (what the local
    VFS expects); missing names trigger one LOOKUP RPC and are cached
    negative-free (a None result is not cached, matching NFS's weak
    negative caching)."""

    def __init__(self, volume: "NFSVolume", owner: ProxyInode):
        super().__init__()
        self.volume = volume
        self.owner = owner
        self._complete = False

    # -- lookups -------------------------------------------------------------

    def get(self, name, default=None):
        if dict.__contains__(self, name):
            return dict.__getitem__(self, name)
        info = self.volume.remote_lookup(self.owner, name)
        if info is None:
            return default
        proxy = self.volume.materialize(info)
        dict.__setitem__(self, name, proxy.ino)
        return proxy.ino

    def __getitem__(self, name):
        ino = self.get(name)
        if ino is None:
            raise KeyError(name)
        return ino

    def __contains__(self, name):
        return self.get(name) is not None

    # -- full enumeration (readdir) ----------------------------------------------

    def _load_all(self) -> None:
        if self._complete:
            return
        for name in self.volume.remote_readdir(self.owner):
            self.get(name)
        self._complete = True

    def __iter__(self):
        self._load_all()
        return dict.__iter__(self)

    def keys(self):
        self._load_all()
        return dict.keys(self)

    def __len__(self):
        self._load_all()
        return dict.__len__(self)

    def __bool__(self):
        if dict.__len__(self):
            return True
        self._load_all()
        return dict.__len__(self) > 0

    # -- mutations ----------------------------------------------------------------

    def __setitem__(self, name, ino) -> None:
        dict.__setitem__(self, name, ino)
        self.volume.remote_link(self.owner, name, ino)

    def __delitem__(self, name) -> None:
        dict.__delitem__(self, name)
        self.volume.remote_unlink(self.owner, name)


class RemoteLasagna:
    """Client-side stand-in for Lasagna on an NFS volume.

    The distributor flushes bundles here; records wait until a data
    write (or sync) carries them to the server.  This is where the
    provenance/data coupling of pass_write is preserved over the wire.
    """

    def __init__(self, volume: "NFSVolume"):
        self.volume = volume
        self._buffer: list[ProvenanceRecord] = []

    def append_provenance(self, bundle: Bundle) -> None:
        cost = self.volume.params.cpu.log_encode * len(bundle)
        if cost:
            self.volume.clock.advance(cost, "provenance_cpu")
        self._buffer.extend(bundle)

    def take(self) -> list[ProvenanceRecord]:
        records, self._buffer = self._buffer, []
        return records

    def crash(self) -> int:
        lost = len(self._buffer)
        self._buffer = []
        return lost

    def sync(self) -> None:
        """pass_sync over the wire: provenance-only transaction."""
        self.volume.send_provenance_only(self.take())


class NFSVolume:
    """Volume-like mount of a remote export (duck-types Volume)."""

    def __init__(self, name: str, client_system: System, server: NFSServer,
                 network: Network):
        self.name = name
        self.system = client_system
        self.kernel = client_system.kernel
        self.clock = self.kernel.clock
        self.params = self.kernel.params
        self.server = server
        self.network = network
        self.volume_id = server.volume.volume_id   # pnode routing
        self.pass_capable = server.volume.pass_capable
        self.block_size = server.volume.block_size
        self.mountpoint: Optional[str] = None
        self.lasagna = RemoteLasagna(self) if self.pass_capable else None
        self.fs_top = self
        self.on_drop_inode = None
        self.pnodes = None

        self._proxies: dict[int, ProxyInode] = {}      # client ino -> proxy
        self._by_server_ino: dict[int, ProxyInode] = {}
        self._next_ino = 2
        self.network.call(_HEADER_BYTES, _HEADER_BYTES)
        self.root = self.materialize(server.op_root())

        # Statistics (benchmarks read these).
        self.data_bytes_written = 0
        self.data_bytes_read = 0
        self.metadata_ops = 0

    # -- proxy management ----------------------------------------------------------

    def materialize(self, info: dict) -> ProxyInode:
        """Get-or-create the proxy for a server inode."""
        proxy = self._by_server_ino.get(info["ino"])
        if proxy is not None:
            proxy.note_size(info["size"])
            proxy.version = max(proxy.version, info["version"])
            return proxy
        proxy = ProxyInode(self, self._next_ino, info["kind"],
                           info["pnode"], info["ino"],
                           size=info["size"], version=info["version"])
        self._proxies[self._next_ino] = proxy
        self._by_server_ino[info["ino"]] = proxy
        self._next_ino += 1
        return proxy

    def inode(self, ino: int) -> ProxyInode:
        return self._proxies[ino]

    # -- namespace RPCs ---------------------------------------------------------------

    def remote_lookup(self, parent: ProxyInode, name: str) -> Optional[dict]:
        self.network.call(_HEADER_BYTES + len(name), _HEADER_BYTES)
        return self.server.op_lookup(parent.server_ino, name)

    def remote_readdir(self, owner: ProxyInode) -> list[str]:
        self.network.call(_HEADER_BYTES, _HEADER_BYTES * 4)
        return self.server.op_readdir(owner.server_ino)

    def remote_link(self, parent: ProxyInode, name: str, ino: int) -> None:
        self.metadata_ops += 1
        child = self.inode(ino)
        self.network.call(_HEADER_BYTES + len(name), _HEADER_BYTES)
        self.server.op_link(parent.server_ino, name, child.server_ino)

    def remote_unlink(self, parent: ProxyInode, name: str) -> None:
        self.metadata_ops += 1
        self.network.call(_HEADER_BYTES + len(name), _HEADER_BYTES)
        self.server.op_unlink_entry(parent.server_ino, name)

    def create_inode(self, kind: str) -> ProxyInode:
        self.metadata_ops += 1
        self.network.call(_HEADER_BYTES, _HEADER_BYTES)
        return self.materialize(self.server.op_create(kind))

    def drop_inode(self, inode: ProxyInode) -> None:
        self.network.call(_HEADER_BYTES, _HEADER_BYTES)
        self.server.op_remove(inode.server_ino)
        self._proxies.pop(inode.ino, None)
        self._by_server_ino.pop(inode.server_ino, None)

    def journal_op(self, nbytes: int = 0) -> None:
        """Client-side metadata op that only exists server-side: a round
        trip stands in for the journalled operation."""
        self.metadata_ops += 1
        self.network.call(_HEADER_BYTES, _HEADER_BYTES)
        self.server.volume.journal_op()

    def truncate(self, inode: ProxyInode, size: int) -> None:
        self.metadata_ops += 1
        self.network.call(_HEADER_BYTES, _HEADER_BYTES)
        self.server.op_truncate(inode.server_ino, size)
        inode.note_size(size)

    def revalidate(self, inode: ProxyInode) -> None:
        """Close-to-open consistency: refresh attributes from the server."""
        self.network.call(_HEADER_BYTES, _HEADER_BYTES)
        info = self.server.op_getattr(inode.server_ino)
        inode.note_size(info["size"])
        inode.version = max(inode.version, info["version"])

    # -- data path --------------------------------------------------------------------------

    def read_bytes(self, inode: ProxyInode, offset: int,
                   length: int) -> bytes:
        length = min(length, max(0, inode.size - offset))
        if length <= 0:
            return b""
        chunks = self.network.chunked_calls(length)
        for index in range(chunks):
            share = length // chunks if index else length - (chunks - 1) * (length // chunks)
            self.network.call(_HEADER_BYTES, _HEADER_BYTES + share)
        if self.pass_capable and self.kernel.provenance_on:
            data, pnode, version = self.server.op_passread(
                inode.server_ino, offset, length)
            inode.version = max(inode.version, version)
        else:
            data = self.server.op_read(inode.server_ino, offset, length)
        self.data_bytes_read += len(data)
        return data

    def write_bytes(self, inode: ProxyInode, offset: int,
                    data: Optional[bytes],
                    length: Optional[int] = None) -> int:
        nbytes = len(data) if data is not None else (length or 0)
        records = (self.lasagna.take()
                   if self.lasagna is not None and self.kernel.provenance_on
                   else [])
        if records:
            written = self._pass_write(inode, offset, data, nbytes, records)
        else:
            self._charge_data(nbytes)
            written = self.server.op_write(inode.server_ino, offset,
                                           data, length)
        inode.note_size(max(inode.size, offset + nbytes))
        self.data_bytes_written += nbytes
        return written

    def _pass_write(self, inode: ProxyInode, offset: int,
                    data: Optional[bytes], nbytes: int,
                    records: list[ProvenanceRecord]) -> int:
        prov_bytes = sum(codec.encoded_size(r) for r in records)
        max_block = self.network.params.max_block
        if prov_bytes + nbytes <= max_block:
            # Everything fits in one wire block: one OP_PASSWRITE.
            self.network.call(_HEADER_BYTES + nbytes + prov_bytes,
                              _HEADER_BYTES)
            return self.server.op_passwrite(
                inode.server_ino, offset, data, nbytes if data is None
                else None, records, txn=None)
        if prov_bytes <= max_block:
            # The *data* is what overflows: it is chunked anyway (like
            # plain NFS WRITEs); the records piggyback on the first
            # chunk, no transaction needed.
            self._charge_data(nbytes, extra_first=prov_bytes)
            return self.server.op_passwrite(
                inode.server_ino, offset, data,
                nbytes if data is None else None, records, txn=None)
        # The provenance alone exceeds a wire block: wrap it in a
        # provenance transaction (OP_BEGINTXN / OP_PASSPROV*).
        self.network.call(_HEADER_BYTES, _HEADER_BYTES)
        txn = self.server.op_begintxn(inode.ref())
        for chunk, chunk_bytes in _chunk_records(records, max_block):
            self.network.call(_HEADER_BYTES + chunk_bytes, _HEADER_BYTES)
            self.server.op_passprov(txn, chunk)
        self._charge_data(nbytes)
        return self.server.op_passwrite(
            inode.server_ino, offset, data,
            nbytes if data is None else None, [], txn=txn)

    def _charge_data(self, nbytes: int, extra_first: int = 0) -> None:
        chunks = self.network.chunked_calls(nbytes)
        base = nbytes // chunks if chunks else 0
        for index in range(chunks):
            share = base if index else nbytes - (chunks - 1) * base
            extra = extra_first if index == 0 else 0
            self.network.call(_HEADER_BYTES + share + extra, _HEADER_BYTES)

    def send_provenance_only(self, records: list[ProvenanceRecord]) -> None:
        """Commit records with no accompanying data (pass_sync)."""
        if not records:
            return
        subject = records[0].subject
        self.network.call(_HEADER_BYTES, _HEADER_BYTES)
        txn = self.server.op_begintxn(subject)
        for chunk, chunk_bytes in _chunk_records(
                records, self.network.params.max_block):
            self.network.call(_HEADER_BYTES + chunk_bytes, _HEADER_BYTES)
            self.server.op_passprov(txn, chunk)
        self.network.call(_HEADER_BYTES, _HEADER_BYTES)
        self.server.op_endtxn(txn, subject)

    def __repr__(self) -> str:
        return f"<NFSVolume {self.name} -> {self.server.volume.name}>"


def _chunk_records(records: list[ProvenanceRecord],
                   max_block: int):
    """Split records into <= max_block byte chunks (never empty)."""
    chunk: list[ProvenanceRecord] = []
    size = 0
    for record in records:
        rbytes = codec.encoded_size(record)
        if chunk and size + rbytes > max_block:
            yield chunk, size
            chunk, size = [], 0
        chunk.append(record)
        size += rbytes
    if chunk:
        yield chunk, size


class NFSClient:
    """Mounts one export into a client machine and wires provenance."""

    def __init__(self, client_system: System, server: NFSServer,
                 network: Optional[Network] = None,
                 mountpoint: str = "/nfs", name: Optional[str] = None):
        self.system = client_system
        self.server = server
        self.network = network or Network(client_system.kernel.clock,
                                          client_system.kernel.params.net)
        self.volume = NFSVolume(
            name or f"nfs-{server.volume.name}", client_system, server,
            self.network,
        )
        client_system.kernel.mount_volume(self.volume, mountpoint)
        self.mountpoint = mountpoint
        if client_system.kernel.analyzer is not None:
            self._chain_freeze_hook(client_system.kernel.analyzer)
        self._revived: dict[int, PassObject] = {}

    # -- freeze records (client-side versioning) --------------------------------------------

    def _chain_freeze_hook(self, analyzer) -> None:
        previous = analyzer.on_freeze

        def on_freeze(subject, version: int) -> None:
            if (isinstance(subject, ProxyInode)
                    and subject.volume is self.volume):
                self.volume.lasagna.append_provenance(Bundle([
                    ProvenanceRecord(ObjectRef(subject.pnode, version),
                                     Attr.FREEZE, version),
                ]))
            if previous is not None:
                previous(subject, version)

        analyzer.on_freeze = on_freeze

    # -- remote DPAPI objects -------------------------------------------------------------------

    def remote_mkobj(self) -> PassObject:
        """pass_mkobj with the pnode allocated at the server
        (OP_PASSMKOBJ): the object's provenance routes to the export."""
        self.network.call(_HEADER_BYTES, _HEADER_BYTES)
        pnode = self.server.op_passmkobj()
        obj = PassObject(pnode, volume_hint=self.volume.name)
        kernel = self.system.kernel
        if kernel.observer is not None:
            kernel.observer.adopt_passobj(obj)
        elif kernel.analyzer is not None:
            kernel.analyzer.register(obj)
        self._revived[pnode] = obj
        return obj

    def remote_reviveobj(self, pnode: int, version: int) -> PassObject:
        """pass_reviveobj over the wire; validates at the server."""
        self.network.call(_HEADER_BYTES, _HEADER_BYTES)
        if not self.server.op_passreviveobj(pnode, version):
            raise StalePnodeVersion(
                f"server rejected pnode {pnode} version {version}"
            )
        obj = self._revived.get(pnode)
        if obj is None:
            obj = PassObject(pnode, volume_hint=self.volume.name)
            self._revived[pnode] = obj
            kernel = self.system.kernel
            if kernel.analyzer is not None:
                kernel.analyzer.register(obj)
        obj.version = max(obj.version, version)
        return obj

    # -- lifecycle ----------------------------------------------------------------------------------

    def revalidate(self, path: str) -> None:
        """Refresh one path's attributes (close-to-open at open time)."""
        inode = self.system.kernel.vfs.resolve(path)
        if not isinstance(inode, ProxyInode):
            raise FileNotFound(f"{path} is not on an NFS mount")
        self.volume.revalidate(inode)

    def sync(self) -> None:
        """Push buffered provenance to the server and commit its log."""
        if self.volume.lasagna is not None:
            self.volume.lasagna.sync()
        self.network.call(_HEADER_BYTES, _HEADER_BYTES)
        self.server.op_commit()

    def crash(self) -> int:
        """Client dies: buffered provenance is lost (the server's
        transaction framing orphans anything half-sent)."""
        if self.volume.lasagna is not None:
            return self.volume.lasagna.crash()
        return 0
