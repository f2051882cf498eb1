"""Union (overlay) filesystem used to model Docker image layers.

A Docker image is an ordered stack of layers; each layer may add files,
replace files from lower layers, or delete them with *whiteout* markers
(``.wh.<name>`` entries, as in overlayfs/aufs).  The overlay presents the
merged view the container would see, through the standard
:class:`~repro.fs.view.FilesystemView` interface, so the crawler does not
care whether it is scanning a host or an image.
"""

from __future__ import annotations

import posixpath
from typing import Sequence

from repro.errors import FileNotFoundInFrame, NotADirectoryInFrame
from repro.fs.meta import FileStat
from repro.fs.view import FilesystemView, normalize_path
from repro.fs.vfs import VirtualFilesystem

#: Basename prefix marking a deletion in an upper layer (aufs convention).
WHITEOUT_PREFIX = ".wh."

#: An opaque-directory whiteout hides *everything* below it in lower layers.
OPAQUE_MARKER = ".wh..wh..opq"


def whiteout_for(path: str) -> str:
    """Return the whiteout marker path that deletes ``path``."""
    return posixpath.join(posixpath.dirname(path), WHITEOUT_PREFIX + posixpath.basename(path))


class OverlayFilesystem(FilesystemView):
    """Merged read-only view over an ordered stack of layers.

    ``layers`` are ordered bottom-to-top; the *last* layer wins.  Layers are
    typically :class:`VirtualFilesystem` instances but any view works.
    Whiteout entries themselves are hidden from the merged view.
    """

    def __init__(self, layers: Sequence[FilesystemView]):
        if not layers:
            raise ValueError("an overlay needs at least one layer")
        self._layers = list(layers)

    @property
    def layers(self) -> list[FilesystemView]:
        """The layer stack, bottom-to-top (read-only use)."""
        return list(self._layers)

    # ---- FilesystemView --------------------------------------------------

    def change_token(self) -> tuple | None:
        """The layers' tokens: an appended layer or an edited one changes
        it (``None`` if any layer cannot tell)."""
        tokens = tuple([layer.change_token() for layer in self._layers])
        return None if None in tokens else tokens

    def exists(self, path: str) -> bool:
        return self._locate(normalize_path(path)) is not None

    def is_dir(self, path: str) -> bool:
        layer = self._locate(normalize_path(path))
        return layer is not None and layer.is_dir(path)

    def read_text(self, path: str) -> str:
        path = normalize_path(path)
        layer = self._locate(path)
        if layer is None:
            raise FileNotFoundInFrame(path)
        return layer.read_text(path)

    def stat(self, path: str) -> FileStat:
        path = normalize_path(path)
        layer = self._locate(path)
        if layer is None:
            raise FileNotFoundInFrame(path)
        return layer.stat(path)

    def realpath(self, path: str) -> str:
        """``path`` resolved in the topmost layer providing it, as every
        other read resolves it."""
        path = normalize_path(path)
        layer = self._locate(path)
        return path if layer is None else layer.realpath(path)

    def listdir(self, path: str) -> list[str]:
        path = normalize_path(path)
        if not self.is_dir(path):
            if not self.exists(path):
                raise FileNotFoundInFrame(path)
            raise NotADirectoryInFrame(path)
        names: set[str] = set()
        # Walk top-down; once a layer deletes or opaques a name, lower
        # layers cannot resurrect it.  A whiteout only deletes *lower*
        # layers: an entry re-created in the same layer as its whiteout
        # stays visible (matching _locate's semantics).
        deleted: set[str] = set()
        for layer in reversed(self._layers):
            if not layer.is_dir(path):
                if layer.exists(path):
                    break  # a non-directory shadows lower directories
                continue
            children = layer.listdir(path)
            layer_whiteouts: set[str] = set()
            for name in children:
                if name == OPAQUE_MARKER:
                    continue
                if name.startswith(WHITEOUT_PREFIX):
                    layer_whiteouts.add(name[len(WHITEOUT_PREFIX):])
                    continue
                if name not in deleted:
                    names.add(name)
            deleted.update(layer_whiteouts)
            if OPAQUE_MARKER in children:
                break  # nothing below this layer is visible
        return sorted(names)

    def flat_nodes(self) -> list[tuple[str, FileStat, str]] | None:
        """``(path, stat, content)`` for every path of the merged view,
        sorted by path, read from the layers' stored nodes.

        Each path takes the topmost layer's node, as :meth:`_locate`
        does, and the root takes the bottom layer's stat.  Returns
        ``None`` when that union is not provably what a walk observes:
        a layer has no bulk read or holds symlinks (its ``flat_nodes``
        is ``None``), a layer holds whiteout or opaque markers, or a
        path is a directory in one layer and not in another.
        """
        merged: dict[str, tuple[FileStat, str]] = {}
        for layer in self._layers:
            flat = getattr(layer, "flat_nodes", None)
            if flat is None or getattr(layer, "whiteout_count", None) != 0:
                return None
            nodes = flat()
            if nodes is None:
                return None
            for path, stat, content in nodes:
                below = merged.get(path)
                if below is not None and below[0].is_dir != stat.is_dir:
                    return None
                merged[path] = (stat, content)
        merged["/"] = (self._layers[0].stat("/"), "")
        return [(path, stat, content)
                for path, (stat, content) in sorted(merged.items())]

    # ---- helpers -----------------------------------------------------------

    def _locate(self, path: str) -> FilesystemView | None:
        """Return the topmost layer providing ``path``, honoring whiteouts
        along every ancestor directory."""
        if path == "/":
            return self._layers[0]
        for layer in reversed(self._layers):
            if self._whiteout_blocks(layer, path):
                return None
            if layer.exists(path):
                return layer
        return None

    def _whiteout_blocks(self, layer: FilesystemView, path: str) -> bool:
        """True if ``layer`` contains a whiteout for ``path`` or any of its
        ancestors (or an opaque marker over an ancestor directory that would
        hide the lower-layer entry)."""
        # Most layers delete nothing; VirtualFilesystem counts its whiteout
        # entries so those layers skip the ancestor probing entirely.
        whiteouts = getattr(layer, "whiteout_count", None)
        if whiteouts == 0:
            return False
        current = path
        while current != "/":
            if layer.exists(whiteout_for(current)):
                # The whiteout only blocks *lower* layers; if this same layer
                # also re-creates the path, the recreate wins.
                if not layer.exists(current):
                    return True
            parent = posixpath.dirname(current)
            opaque = posixpath.join(parent, OPAQUE_MARKER)
            if layer.exists(opaque) and not layer.exists(current):
                return True
            current = parent
        return False


def flatten(overlay: OverlayFilesystem) -> VirtualFilesystem:
    """Materialize the merged view into a fresh :class:`VirtualFilesystem`.

    Used when a container is started from an image: the container gets a
    private writable copy of the merged image content.
    """
    merged = VirtualFilesystem()
    for dirpath, _dirs, files in overlay.walk("/"):
        stat = overlay.stat(dirpath)
        merged.mkdir(
            dirpath,
            mode=stat.mode,
            uid=stat.uid,
            gid=stat.gid,
            owner=stat.owner,
            group=stat.group,
        )
        for name in files:
            path = posixpath.join(dirpath, name)
            file_stat = overlay.stat(path)
            merged.write_file(
                path,
                overlay.read_text(path),
                mode=file_stat.mode,
                uid=file_stat.uid,
                gid=file_stat.gid,
                owner=file_stat.owner,
                group=file_stat.group,
                mtime=file_stat.mtime,
            )
    return merged
