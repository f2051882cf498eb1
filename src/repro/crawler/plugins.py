"""Runtime-state extraction plugins.

Plugins cover the paper's "custom configuration" category (§2.1.3):
configuration that is not a text file and "must first be retrieved by
executing application-specific commands" or API calls.  Each plugin
flattens the state it knows how to extract into a flat ``key -> value``
string mapping, stored on the frame under the plugin's namespace; CVL
*script* rules then address single keys (``script: "docker
HostConfig.Privileged"``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

from repro.errors import PluginError
from repro.crawler.entities import Entity

#: ``parse(lens, text, source) -> ConfigTree``: how a plugin turns a
#: config file into a tree (see :meth:`RuntimePlugin.extract_with`).
ParseFn = Callable[[Any, str, str], Any]


def parse_text(lens, text: str, source: str):
    """The uncached :data:`ParseFn`: ``lens.parse(text, source=source)``."""
    return lens.parse(text, source=source)


def flatten_json(value: object, prefix: str = "") -> dict[str, str]:
    """Flatten a JSON-shaped object into dotted keys with string values.

    Lists use numeric components (``Mounts.0.RW``); booleans render
    lowercase (matching their on-disk JSON form); None renders as ``""``.
    A list of scalars *additionally* stores the comma-joined value at the
    list's own key (``HostConfig.CapDrop -> "ALL,NET_RAW"``; empty list ->
    ``""``) so rules can assert over the whole list with one lookup.
    """
    flat: dict[str, str] = {}
    _flatten_into(flat, value, prefix)
    return flat


def _render_json_scalar(node: object) -> str:
    if isinstance(node, bool):
        return "true" if node else "false"
    if node is None:
        return ""
    return str(node)


def _flatten_into(flat: dict[str, str], node: object, path: str) -> None:
    """:func:`flatten_json`'s recursion: a module-level function, since a
    recursive closure is a reference cycle per call."""
    if isinstance(node, dict):
        if not node and path:
            flat[path] = ""
        for key, item in node.items():
            _flatten_into(flat, item, f"{path}.{key}" if path else str(key))
    elif isinstance(node, (list, tuple)):
        if path and all(
            not isinstance(item, (dict, list, tuple)) for item in node
        ):
            flat[path] = ",".join(_render_json_scalar(item) for item in node)
        elif not node and path:
            flat[path] = ""
        for index, item in enumerate(node):
            _flatten_into(flat, item,
                          f"{path}.{index}" if path else str(index))
    else:
        flat[path] = _render_json_scalar(node)


class RuntimePlugin(ABC):
    """Extractor for one namespace of runtime state."""

    #: Namespace the extracted keys are stored under.
    name: str = "abstract"

    #: Entity kinds this plugin can run against.
    kinds: tuple[str, ...] = ()

    def applies_to(self, entity: Entity) -> bool:
        return not self.kinds or entity.kind in self.kinds

    def signature(self, entity: Entity) -> object:
        """What :meth:`applies_to` and :meth:`extract` read besides the
        entity's kind and filesystem, compared with ``==`` across crawls;
        ``None`` (the default): cannot tell, so the crawler never reuses
        a frame of an entity this plugin's kinds admit."""
        return None

    @abstractmethod
    def extract(self, entity: Entity) -> dict[str, str]:
        """Flat key-value runtime state for ``entity``."""

    def extract_with(self, entity: Entity, parse: ParseFn) -> dict[str, str]:
        """:meth:`extract`, parsing config files with ``parse``.

        The crawler calls this; its ``parse`` goes through the
        validator's parse cache when it has one.  Plugins that parse
        config files override it and have :meth:`extract` call it with
        :func:`parse_text`; the default ignores ``parse``.
        """
        return self.extract(entity)


class DockerInspectPlugin(RuntimePlugin):
    """Flattened ``docker inspect`` output for containers and images."""

    name = "docker"
    kinds = ("container", "image")

    @staticmethod
    def _target(entity: Entity):
        context = entity.runtime_context()
        target = context.get("container") or context.get("image")
        if target is None:
            raise PluginError(f"docker plugin: no docker object on {entity!r}")
        return target

    def signature(self, entity: Entity) -> tuple:
        """Every field ``docker inspect`` reads, as a flat tuple: far
        cheaper to build and compare than the document itself."""
        return self._target(entity).inspect_signature()

    def extract(self, entity: Entity) -> dict[str, str]:
        return flatten_json(self._target(entity).inspect())


class MySQLVariablesPlugin(RuntimePlugin):
    """Simulated ``SHOW VARIABLES``: effective server variables derived from
    my.cnf plus compiled-in defaults (the paper's example of configuration
    that "needs certain commands to be executed for retrieving", e.g.
    whether SSL is enabled)."""

    name = "mysql"
    kinds = ("host", "container", "image")

    def applies_to(self, entity: Entity) -> bool:
        """Only entities that actually carry a MySQL config get a mysql
        runtime namespace -- otherwise every container would appear to run
        a (misconfigured) MySQL server."""
        if not super().applies_to(entity):
            return False
        fs = entity.filesystem()
        return any(fs.is_file(path) for path in self._CONFIG_PATHS)

    _DEFAULTS = {
        "have_ssl": "DISABLED",
        "ssl_ca": "",
        "ssl_cert": "",
        "ssl_key": "",
        "local_infile": "ON",
        "skip_networking": "OFF",
        "skip_show_database": "OFF",
        "secure_file_priv": "",
        "old_passwords": "OFF",
        "bind_address": "0.0.0.0",
    }

    _CONFIG_PATHS = ("/etc/mysql/my.cnf", "/etc/my.cnf")

    def signature(self, entity: Entity) -> tuple:
        return ()  # reads nothing but the filesystem

    def extract(self, entity: Entity) -> dict[str, str]:
        return self.extract_with(entity, parse_text)

    def extract_with(self, entity: Entity, parse: ParseFn) -> dict[str, str]:
        from repro.augtree.lenses.ini import IniLens

        variables = dict(self._DEFAULTS)
        fs = entity.filesystem()
        for path in self._CONFIG_PATHS:
            if not fs.is_file(path):
                continue
            tree = parse(IniLens(), fs.read_text(path), path)
            section = tree.first("mysqld")
            if section is None:
                continue
            for child in section.children:
                key = child.label.replace("-", "_")
                value = child.value if child.value is not None else "ON"
                variables[key] = value
        if variables.get("ssl_ca") and variables.get("ssl_cert"):
            variables["have_ssl"] = "YES"
        elif variables.get("ssl_ca"):
            variables["have_ssl"] = "YES"  # cert may come from the CA bundle
        return variables


class LiveSysctlPlugin(RuntimePlugin):
    """Kernel parameters as ``sysctl -a`` would report them: compiled-in
    defaults overridden by sysctl.conf, overridden by any live state the
    host entity carries."""

    name = "sysctl"
    kinds = ("host",)

    _DEFAULTS = {
        "net.ipv4.ip_forward": "0",
        "net.ipv4.conf.all.send_redirects": "1",
        "net.ipv4.conf.all.accept_redirects": "1",
        "net.ipv4.conf.all.accept_source_route": "0",
        "net.ipv4.conf.all.log_martians": "0",
        "net.ipv4.tcp_syncookies": "1",
        "kernel.randomize_va_space": "2",
        "fs.suid_dumpable": "0",
    }

    def signature(self, entity: Entity) -> dict:
        """A copy of the live kernel state the host carries."""
        return dict(entity.runtime_context().get("live_sysctl") or {})

    def extract(self, entity: Entity) -> dict[str, str]:
        return self.extract_with(entity, parse_text)

    def extract_with(self, entity: Entity, parse: ParseFn) -> dict[str, str]:
        from repro.augtree.lenses.sysctl import SysctlLens

        state = dict(self._DEFAULTS)
        fs = entity.filesystem()
        candidates = ["/etc/sysctl.conf"]
        if fs.is_dir("/etc/sysctl.d"):
            candidates.extend(fs.find("/etc/sysctl.d", "*.conf"))
        for path in candidates:
            if not fs.is_file(path):
                continue
            tree = parse(SysctlLens(), fs.read_text(path), path)
            for node in tree.root.children:
                state[node.label] = node.value or ""
        live = entity.runtime_context().get("live_sysctl") or {}
        state.update({str(k): str(v) for k, v in live.items()})
        return state


class LiveMountsPlugin(RuntimePlugin):
    """Effective mount table (``/proc/mounts``) as runtime state.

    fstab declares intent; /proc/mounts is reality (a remount can drop
    ``noexec`` without touching fstab).  Keys: ``<dir>.device``,
    ``<dir>.type``, ``<dir>.options``."""

    name = "mounts"
    kinds = ("host",)

    def signature(self, entity: Entity) -> tuple:
        return ()  # reads nothing but the filesystem

    def extract(self, entity: Entity) -> dict[str, str]:
        from repro.schema.parsers import MountsParser

        fs = entity.filesystem()
        state: dict[str, str] = {}
        for path in ("/proc/mounts", "/etc/mtab"):
            if not fs.is_file(path):
                continue
            table = MountsParser().parse(fs.read_text(path), source=path)
            for row in table:
                directory = row["dir"]
                state[f"{directory}.device"] = row["device"]
                state[f"{directory}.type"] = row["type"]
                state[f"{directory}.options"] = row["options"]
            break
        return state

    def applies_to(self, entity: Entity) -> bool:
        if not super().applies_to(entity):
            return False
        fs = entity.filesystem()
        return fs.is_file("/proc/mounts") or fs.is_file("/etc/mtab")


class CloudStatePlugin(RuntimePlugin):
    """Cloud resource state for the entity's project, flattened, plus
    derived convenience keys that policy rules commonly assert on:

    * ``derived.world_open_ssh`` -- any ingress rule open to the world on 22
    * ``derived.world_open_any`` -- any world-open ingress rule at all
    * ``derived.users_without_mfa`` -- comma-joined admin users lacking MFA
    * ``derived.instances_without_keypair`` -- instances with no SSH keypair
    """

    name = "cloud"
    kinds = ("cloud",)

    def extract(self, entity: Entity) -> dict[str, str]:
        context = entity.runtime_context()
        cloud = context.get("cloud")
        project_name = context.get("project")
        if cloud is None or project_name is None:
            raise PluginError(f"cloud plugin: no control plane on {entity!r}")
        project = cloud.project(project_name)
        state = flatten_json(
            {
                "security_groups": {
                    name: group.as_dict()
                    for name, group in sorted(project.security_groups.items())
                },
                "instances": {
                    name: instance.as_dict()
                    for name, instance in sorted(project.instances.items())
                },
                "users": {
                    name: user.as_dict()
                    for name, user in sorted(project.users.items())
                },
            }
        )
        state.update(self._derived(project))
        return state

    @staticmethod
    def _derived(project) -> dict[str, str]:
        world_ssh = False
        world_any = False
        for group in project.security_groups.values():
            for rule in group.rules:
                if rule.direction != "ingress" or not rule.world_open:
                    continue
                world_any = True
                if rule.protocol in ("tcp", "any") and rule.covers_port(22):
                    world_ssh = True
        no_mfa = sorted(
            user.name
            for user in project.users.values()
            if "admin" in user.roles and not user.mfa_enabled
        )
        no_key = sorted(
            instance.name
            for instance in project.instances.values()
            if not instance.key_name
        )
        return {
            "derived.world_open_ssh": "true" if world_ssh else "false",
            "derived.world_open_any": "true" if world_any else "false",
            "derived.users_without_mfa": ",".join(no_mfa),
            "derived.instances_without_keypair": ",".join(no_key),
        }


class PluginRegistry:
    """Named plugin lookup with applicability filtering."""

    def __init__(self):
        self._plugins: dict[str, RuntimePlugin] = {}

    def register(self, plugin: RuntimePlugin) -> None:
        if plugin.name in self._plugins:
            raise ValueError(f"duplicate plugin {plugin.name!r}")
        self._plugins[plugin.name] = plugin

    def get(self, name: str) -> RuntimePlugin:
        try:
            return self._plugins[name]
        except KeyError:
            raise PluginError(f"no runtime plugin named {name!r}") from None

    def applicable(self, entity: Entity) -> list[RuntimePlugin]:
        return [
            plugin
            for _name, plugin in sorted(self._plugins.items())
            if plugin.applies_to(entity)
        ]

    def names(self) -> list[str]:
        return sorted(self._plugins)

    def __contains__(self, name: str) -> bool:
        return name in self._plugins


def default_plugin_registry() -> PluginRegistry:
    """Registry with every built-in runtime plugin."""
    registry = PluginRegistry()
    for plugin in (
        DockerInspectPlugin(),
        MySQLVariablesPlugin(),
        LiveSysctlPlugin(),
        LiveMountsPlugin(),
        CloudStatePlugin(),
    ):
        registry.register(plugin)
    return registry
