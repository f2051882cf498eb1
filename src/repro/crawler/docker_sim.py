"""Simulated Docker substrate.

The paper's production deployment scans Docker images and running
containers.  Offline we model the pieces the validator interacts with:

* **images** as ordered layer stacks over :class:`VirtualFilesystem`
  (union semantics via :class:`OverlayFilesystem`), plus the image config
  (env, user, exposed ports, entrypoint, healthcheck, labels);
* **containers** as an image plus a writable top layer plus runtime
  options (``HostConfig``: privileged, capability sets, resource limits,
  mounts, port bindings, ...);
* a **daemon** owning both, with a ``docker inspect``-shaped dict API that
  the docker runtime plugin feeds to the rule engine (this is the custom
  "runtime state" configuration category).

Nothing here talks to a real Docker daemon; determinism is a feature
(image ids are content-derived hashes).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

from repro.errors import DockerSimError
from repro.fs.overlay import OverlayFilesystem
from repro.fs.packages import Package, PackageDatabase
from repro.fs.vfs import VirtualFilesystem

_id_counter = itertools.count(1)


def _make_id(seed: str) -> str:
    return hashlib.sha256(f"{seed}:{next(_id_counter)}".encode()).hexdigest()


@dataclass
class HealthCheck:
    """Image HEALTHCHECK instruction."""

    test: list[str]
    interval_s: int = 30
    timeout_s: int = 30
    retries: int = 3


@dataclass
class ImageConfig:
    """The non-filesystem half of an image (Dockerfile metadata)."""

    env: dict[str, str] = field(default_factory=dict)
    user: str = ""
    exposed_ports: list[str] = field(default_factory=list)
    entrypoint: list[str] = field(default_factory=list)
    cmd: list[str] = field(default_factory=list)
    labels: dict[str, str] = field(default_factory=dict)
    workdir: str = "/"
    healthcheck: HealthCheck | None = None


class DockerImage:
    """An immutable image: layers + config + package DB."""

    def __init__(
        self,
        name: str,
        tag: str,
        layers: list[VirtualFilesystem],
        config: ImageConfig,
        packages: PackageDatabase | None = None,
        parent: "DockerImage | None" = None,
    ):
        self.name = name
        self.tag = tag
        self.layers = layers
        self.config = config
        self.packages = packages or PackageDatabase()
        self.parent = parent
        self.image_id = _make_id(f"{name}:{tag}")

    @property
    def reference(self) -> str:
        return f"{self.name}:{self.tag}"

    def filesystem(self) -> OverlayFilesystem:
        """The merged view a container built from this image starts with."""
        return OverlayFilesystem(self.layers)

    def inspect(self) -> dict:
        """``docker image inspect``-shaped metadata."""
        return {
            "Id": f"sha256:{self.image_id}",
            "RepoTags": [self.reference],
            "Config": {
                "Env": [f"{k}={v}" for k, v in sorted(self.config.env.items())],
                "User": self.config.user,
                "ExposedPorts": {port: {} for port in self.config.exposed_ports},
                "Entrypoint": list(self.config.entrypoint),
                "Cmd": list(self.config.cmd),
                "Labels": dict(self.config.labels),
                "WorkingDir": self.config.workdir,
                "Healthcheck": (
                    {"Test": list(self.config.healthcheck.test)}
                    if self.config.healthcheck
                    else None
                ),
            },
            "RootFS": {"Type": "layers", "Layers": [f"layer{i}" for i in range(len(self.layers))]},
        }

    def inspect_signature(self) -> tuple:
        """Every field :meth:`inspect` reads, lists and dicts copied into
        tuples: equal signatures mean equal documents."""
        config = self.config
        healthcheck = config.healthcheck
        return (
            self.image_id, self.name, self.tag, tuple(config.env.items()),
            config.user, tuple(config.exposed_ports),
            tuple(config.entrypoint), tuple(config.cmd),
            tuple(config.labels.items()), config.workdir,
            healthcheck and tuple(healthcheck.test), len(self.layers),
        )


class ImageBuilder:
    """Dockerfile-like fluent builder.

    Each file-writing call group goes into the current layer; ``new_layer``
    (the analog of a new Dockerfile instruction) starts another one, so
    overlay semantics -- shadowing, whiteouts -- are exercised for real.
    """

    def __init__(self, base: DockerImage | None = None):
        self._base = base
        self._layers: list[VirtualFilesystem] = []
        self._current: VirtualFilesystem | None = None
        self._config = ImageConfig(
            env=dict(base.config.env) if base else {},
            user=base.config.user if base else "",
            exposed_ports=list(base.config.exposed_ports) if base else [],
            entrypoint=list(base.config.entrypoint) if base else [],
            cmd=list(base.config.cmd) if base else [],
            labels=dict(base.config.labels) if base else {},
            workdir=base.config.workdir if base else "/",
            healthcheck=base.config.healthcheck if base else None,
        )
        self._packages = PackageDatabase(list(base.packages) if base else [])

    # -- filesystem instructions ------------------------------------------

    def new_layer(self) -> "ImageBuilder":
        self._current = None
        return self

    def _layer(self) -> VirtualFilesystem:
        if self._current is None:
            self._current = VirtualFilesystem()
            self._layers.append(self._current)
        return self._current

    def add_file(self, path: str, content: str = "", *, mode: int = 0o644,
                 uid: int = 0, gid: int = 0, owner: str = "root",
                 group: str = "root") -> "ImageBuilder":
        self._layer().write_file(
            path, content, mode=mode, uid=uid, gid=gid, owner=owner, group=group
        )
        return self

    def mkdir(self, path: str, *, mode: int = 0o755) -> "ImageBuilder":
        self._layer().mkdir(path, mode=mode)
        return self

    def remove(self, path: str) -> "ImageBuilder":
        """Record a whiteout deleting ``path`` from lower layers."""
        from repro.fs.overlay import whiteout_for

        self._layer().write_file(whiteout_for(path), "")
        return self

    def install_package(self, name: str, version: str) -> "ImageBuilder":
        self._packages.install(Package(name=name, version=version))
        return self

    # -- config instructions -------------------------------------------------

    def env(self, key: str, value: str) -> "ImageBuilder":
        self._config.env[key] = value
        return self

    def user(self, user: str) -> "ImageBuilder":
        self._config.user = user
        return self

    def expose(self, port: str) -> "ImageBuilder":
        self._config.exposed_ports.append(port)
        return self

    def label(self, key: str, value: str) -> "ImageBuilder":
        self._config.labels[key] = value
        return self

    def entrypoint(self, *argv: str) -> "ImageBuilder":
        self._config.entrypoint = list(argv)
        return self

    def cmd(self, *argv: str) -> "ImageBuilder":
        self._config.cmd = list(argv)
        return self

    def healthcheck(self, *test: str, interval_s: int = 30) -> "ImageBuilder":
        self._config.healthcheck = HealthCheck(test=list(test), interval_s=interval_s)
        return self

    def build(self, name: str, tag: str = "latest") -> DockerImage:
        layers = (list(self._base.layers) if self._base else []) + self._layers
        if not layers:
            layers = [VirtualFilesystem()]
        return DockerImage(
            name=name,
            tag=tag,
            layers=layers,
            config=self._config,
            packages=self._packages,
            parent=self._base,
        )


@dataclass
class Mount:
    """A bind mount or volume."""

    source: str
    destination: str
    read_only: bool = False

    def as_dict(self) -> dict:
        return {
            "Source": self.source,
            "Destination": self.destination,
            "RW": not self.read_only,
        }


@dataclass
class HostConfig:
    """Container runtime options (the CIS-Docker-relevant subset)."""

    privileged: bool = False
    network_mode: str = "bridge"
    pid_mode: str = ""
    ipc_mode: str = ""
    userns_mode: str = ""
    readonly_rootfs: bool = False
    cap_add: list[str] = field(default_factory=list)
    cap_drop: list[str] = field(default_factory=list)
    security_opt: list[str] = field(default_factory=list)
    memory: int = 0                 # bytes; 0 = unlimited
    cpu_shares: int = 0
    pids_limit: int = 0
    restart_policy: str = "no"
    restart_max_retries: int = 0
    port_bindings: dict[str, str] = field(default_factory=dict)  # "80/tcp" -> "0.0.0.0:8080"
    mounts: list[Mount] = field(default_factory=list)
    devices: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "Privileged": self.privileged,
            "NetworkMode": self.network_mode,
            "PidMode": self.pid_mode,
            "IpcMode": self.ipc_mode,
            "UsernsMode": self.userns_mode,
            "ReadonlyRootfs": self.readonly_rootfs,
            "CapAdd": list(self.cap_add),
            "CapDrop": list(self.cap_drop),
            "SecurityOpt": list(self.security_opt),
            "Memory": self.memory,
            "CpuShares": self.cpu_shares,
            "PidsLimit": self.pids_limit,
            "RestartPolicy": {
                "Name": self.restart_policy,
                "MaximumRetryCount": self.restart_max_retries,
            },
            "PortBindings": {
                port: [{"HostIp": bind.split(":")[0], "HostPort": bind.split(":")[1]}]
                for port, bind in sorted(self.port_bindings.items())
            },
            "Devices": list(self.devices),
        }


class Container:
    """A running (or exited) container."""

    def __init__(
        self,
        name: str,
        image: DockerImage,
        host_config: HostConfig | None = None,
        env: dict[str, str] | None = None,
        user: str | None = None,
    ):
        self.name = name
        self.image = image
        self.host_config = host_config or HostConfig()
        self.env = dict(image.config.env)
        self.env.update(env or {})
        self.user = user if user is not None else image.config.user
        self.container_id = _make_id(name)
        self.state = "running"
        self.exit_code: int | None = None
        self.health = "healthy" if image.config.healthcheck else "none"
        self._local = VirtualFilesystem()  # copy-on-write top layer

    def filesystem(self) -> OverlayFilesystem:
        """Image layers plus this container's writable layer."""
        return OverlayFilesystem(list(self.image.layers) + [self._local])

    def write_file(self, path: str, content: str, **kwargs) -> None:
        """Write into the container's writable layer (runtime drift)."""
        self._local.write_file(path, content, **kwargs)

    def stop(self, exit_code: int = 0) -> None:
        self.state = "exited"
        self.exit_code = exit_code

    def inspect(self) -> dict:
        """``docker inspect``-shaped state, the shape the docker plugin
        normalizes for script rules."""
        return {
            "Id": self.container_id,
            "Name": f"/{self.name}",
            "Image": f"sha256:{self.image.image_id}",
            "State": {
                "Status": self.state,
                "Running": self.state == "running",
                "ExitCode": self.exit_code,
                "Health": {"Status": self.health},
            },
            "Config": {
                "User": self.user,
                "Env": [f"{k}={v}" for k, v in sorted(self.env.items())],
                "Image": self.image.reference,
                "Labels": dict(self.image.config.labels),
                "Healthcheck": (
                    {"Test": list(self.image.config.healthcheck.test)}
                    if self.image.config.healthcheck
                    else None
                ),
            },
            "HostConfig": self.host_config.as_dict(),
            "Mounts": [mount.as_dict() for mount in self.host_config.mounts],
        }

    def inspect_signature(self) -> tuple:
        """Every field :meth:`inspect` reads, lists, dicts and mounts
        copied into tuples: a snapshot, so it sees in-place edits and
        direct ``host_config`` assignments alike."""
        image = self.image
        healthcheck = image.config.healthcheck
        host = self.host_config
        return (
            self.container_id, self.name, image.image_id, image.name,
            image.tag, self.state, self.exit_code, self.health, self.user,
            tuple(self.env.items()), tuple(image.config.labels.items()),
            healthcheck and tuple(healthcheck.test),
            host.privileged, host.network_mode, host.pid_mode, host.ipc_mode,
            host.userns_mode, host.readonly_rootfs, tuple(host.cap_add),
            tuple(host.cap_drop), tuple(host.security_opt), host.memory,
            host.cpu_shares, host.pids_limit, host.restart_policy,
            host.restart_max_retries, tuple(host.port_bindings.items()),
            tuple((mount.source, mount.destination, mount.read_only)
                  for mount in host.mounts),
            tuple(host.devices),
        )


class DockerDaemon:
    """The simulated Docker engine: image store + container supervisor.

    ``host_fs`` is the filesystem of the machine running the daemon, where
    ``/etc/docker/daemon.json`` and the CIS-audited socket/paths live.
    """

    def __init__(self, host_fs: VirtualFilesystem | None = None):
        self.host_fs = host_fs or _default_docker_host_fs()
        self._images: dict[str, DockerImage] = {}
        self._containers: dict[str, Container] = {}

    # -- image API -----------------------------------------------------------

    def add_image(self, image: DockerImage) -> DockerImage:
        self._images[image.reference] = image
        return image

    def image(self, reference: str) -> DockerImage:
        if ":" not in reference:
            reference = f"{reference}:latest"
        try:
            return self._images[reference]
        except KeyError:
            raise DockerSimError(f"no such image: {reference}") from None

    def images(self) -> list[DockerImage]:
        return sorted(self._images.values(), key=lambda i: i.reference)

    # -- container API ---------------------------------------------------------

    def run(
        self,
        image_reference: str,
        name: str,
        *,
        host_config: HostConfig | None = None,
        env: dict[str, str] | None = None,
        user: str | None = None,
    ) -> Container:
        if name in self._containers:
            raise DockerSimError(f"container name {name!r} already in use")
        container = Container(
            name=name,
            image=self.image(image_reference),
            host_config=host_config,
            env=env,
            user=user,
        )
        self._containers[name] = container
        return container

    def container(self, name: str) -> Container:
        try:
            return self._containers[name]
        except KeyError:
            raise DockerSimError(f"no such container: {name}") from None

    def containers(self, *, all_states: bool = False) -> list[Container]:
        found = sorted(self._containers.values(), key=lambda c: c.name)
        if all_states:
            return found
        return [c for c in found if c.state == "running"]

    def remove_container(self, name: str) -> None:
        self._containers.pop(name, None)

    # -- daemon configuration ----------------------------------------------

    def daemon_config(self) -> dict:
        """Parsed /etc/docker/daemon.json from the host filesystem."""
        if not self.host_fs.exists("/etc/docker/daemon.json"):
            return {}
        return json.loads(self.host_fs.read_text("/etc/docker/daemon.json"))


def _default_docker_host_fs() -> VirtualFilesystem:
    fs = VirtualFilesystem()
    fs.mkdir("/etc/docker", mode=0o755)
    fs.write_file(
        "/etc/docker/daemon.json",
        '{\n  "icc": false,\n  "userns-remap": "default",\n'
        '  "live-restore": true,\n  "userland-proxy": false,\n'
        '  "log-driver": "json-file",\n  "no-new-privileges": true\n}\n',
        mode=0o644,
    )
    fs.write_file("/var/run/docker.sock", "", mode=0o660, gid=999, group="docker")
    fs.write_file(
        "/usr/lib/systemd/system/docker.service",
        "[Service]\nExecStart=/usr/bin/dockerd\n",
        mode=0o644,
    )
    fs.write_file("/etc/default/docker", "# defaults for dockerd\n", mode=0o644)
    return fs
