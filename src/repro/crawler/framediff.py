"""Frame-level diffing: what changed on the entity itself.

Verdict drift (:mod:`repro.engine.drift`) answers "which checks changed";
this module answers the prior question -- "what changed on the machine" --
the snapshot-diffing idea the paper situates itself against (§2.2 cites
configuration debugging by snapshot diff).  Comparing two frames yields
file adds/removes, content changes, metadata (permission/ownership)
changes, package changes, and runtime-state changes, each of which may
explain a verdict regression.
"""

from __future__ import annotations

import difflib
import posixpath
from dataclasses import dataclass, field

from repro.crawler.frame import ConfigFrame

#: Above this many lines on either side, skip the line-level diff --
#: ``difflib.SequenceMatcher`` is quadratic, and a dirty-set oracle must
#: never cost more than the revalidation work it saves.  Large files get
#: a size + first-divergence summary instead.
LARGE_DIFF_THRESHOLD_LINES = 2000


@dataclass(frozen=True)
class FileChange:
    """One changed path between two frames."""

    path: str
    change: str               # added | removed | content | metadata
    detail: str = ""

    def render(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{self.change:<8}] {self.path}{suffix}"


@dataclass
class FrameDiff:
    """All differences between a baseline frame and a current frame."""

    baseline: str
    current: str
    files: list[FileChange] = field(default_factory=list)
    packages_added: list[str] = field(default_factory=list)
    packages_removed: list[str] = field(default_factory=list)
    packages_changed: list[str] = field(default_factory=list)
    runtime_changed: dict[str, list[str]] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not (
            self.files
            or self.packages_added
            or self.packages_removed
            or self.packages_changed
            or self.runtime_changed
        )

    def changed_paths(self) -> list[str]:
        return [change.path for change in self.files]


def _file_index(frame: ConfigFrame) -> dict[str, tuple]:
    index: dict[str, tuple] = {}
    for dirpath, _dirs, filenames in frame.files.walk("/"):
        for name in filenames:
            path = posixpath.join(dirpath, name)
            stat = frame.stat(path)
            index[path] = (
                frame.read_config(path),
                stat.mode,
                stat.ownership,
            )
    return index


def diff_frames(baseline: ConfigFrame, current: ConfigFrame) -> FrameDiff:
    """Compare two frames (typically same entity, different times)."""
    before = _file_index(baseline)
    after = _file_index(current)
    diff = FrameDiff(baseline=baseline.describe(), current=current.describe())

    for path in sorted(set(before) | set(after)):
        if path not in before:
            diff.files.append(FileChange(path=path, change="added"))
        elif path not in after:
            diff.files.append(FileChange(path=path, change="removed"))
        else:
            old_content, old_mode, old_owner = before[path]
            new_content, new_mode, new_owner = after[path]
            if old_content != new_content:
                diff.files.append(
                    FileChange(
                        path=path,
                        change="content",
                        detail=_content_change_detail(old_content,
                                                      new_content),
                    )
                )
            if (old_mode, old_owner) != (new_mode, new_owner):
                diff.files.append(
                    FileChange(
                        path=path,
                        change="metadata",
                        detail=(
                            f"mode {format(old_mode, 'o')} -> "
                            f"{format(new_mode, 'o')}, ownership "
                            f"{old_owner} -> {new_owner}"
                        ),
                    )
                )

    before_packages = {p.name: p.version for p in baseline.packages}
    after_packages = {p.name: p.version for p in current.packages}
    diff.packages_added = sorted(set(after_packages) - set(before_packages))
    diff.packages_removed = sorted(set(before_packages) - set(after_packages))
    diff.packages_changed = sorted(
        name
        for name in set(before_packages) & set(after_packages)
        if before_packages[name] != after_packages[name]
    )

    namespaces = set(baseline.runtime) | set(current.runtime)
    for namespace in sorted(namespaces):
        old_values = baseline.runtime.get(namespace, {})
        new_values = current.runtime.get(namespace, {})
        changed = sorted(
            key
            for key in set(old_values) | set(new_values)
            if old_values.get(key) != new_values.get(key)
        )
        if changed:
            diff.runtime_changed[namespace] = changed
    return diff


def _content_change_detail(old: str, new: str) -> str:
    """Human detail for a content change, capped for large files."""
    old_lines = old.splitlines()
    new_lines = new.splitlines()
    if max(len(old_lines), len(new_lines)) > LARGE_DIFF_THRESHOLD_LINES:
        divergence = _first_divergence(old_lines, new_lines)
        return (
            f"large file: {len(old):,} -> {len(new):,} bytes, "
            f"first divergence at line {divergence}"
        )
    changed = _count_changed_lines(old_lines, new_lines)
    return f"{changed} line(s) differ"


def _first_divergence(old_lines: list[str], new_lines: list[str]) -> int:
    """1-based index of the first differing line (linear scan)."""
    for i, (old_line, new_line) in enumerate(zip(old_lines, new_lines)):
        if old_line != new_line:
            return i + 1
    return min(len(old_lines), len(new_lines)) + 1


def _count_changed_lines(old_lines: list[str], new_lines: list[str]) -> int:
    matcher = difflib.SequenceMatcher(
        a=old_lines, b=new_lines, autojunk=False
    )
    changed = 0
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            changed += max(i2 - i1, j2 - j1)
    return changed


def render_frame_diff(diff: FrameDiff, *, unified_for: list[str] | None = None,
                      baseline: ConfigFrame | None = None,
                      current: ConfigFrame | None = None) -> str:
    """Readable diff summary; optionally inline unified diffs for chosen
    paths (requires the frames)."""
    lines = [f"# frame diff: {diff.baseline} -> {diff.current}"]
    if diff.empty:
        lines.append("# no differences")
        return "\n".join(lines)
    for change in diff.files:
        lines.append(change.render())
    for name in diff.packages_added:
        lines.append(f"[pkg +    ] {name}")
    for name in diff.packages_removed:
        lines.append(f"[pkg -    ] {name}")
    for name in diff.packages_changed:
        lines.append(f"[pkg ~    ] {name}")
    for namespace, keys in diff.runtime_changed.items():
        lines.append(f"[runtime  ] {namespace}: {', '.join(keys)}")
    if unified_for and baseline is not None and current is not None:
        for path in unified_for:
            old = (
                baseline.read_config(path).splitlines()
                if baseline.exists(path)
                else []
            )
            new = (
                current.read_config(path).splitlines()
                if current.exists(path)
                else []
            )
            lines.append("")
            lines.extend(
                difflib.unified_diff(
                    old, new, fromfile=f"a{path}", tofile=f"b{path}", lineterm=""
                )
            )
    return "\n".join(lines)
