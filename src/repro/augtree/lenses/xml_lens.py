"""Lens for XML configuration (Hadoop *-site.xml and friends).

Generic mapping: an element becomes a node labeled with its tag; element
text (stripped) becomes the node value; attributes become ``@name``
children; child elements become children.  For Hadoop's

    <configuration>
      <property><name>dfs.permissions.enabled</name><value>true</value></property>
    </configuration>

this yields ``configuration/property`` nodes with ``name`` and ``value``
children, which rules address via child-value predicates::

    property[name='dfs.permissions.enabled']/value
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.augtree.lenses.base import MAX_NESTING, TOO_DEEP, Lens
from repro.augtree.tree import ConfigNode, ConfigTree


class XmlLens(Lens):
    name = "xml"
    file_patterns = ("*.xml",)

    def parse(self, text: str, source: str = "<memory>") -> ConfigTree:
        try:
            element = ET.fromstring(text)
        except ET.ParseError as exc:
            raise self.error(f"invalid XML: {exc}") from exc
        root = ConfigNode("(root)")
        self._convert(element, root)
        return ConfigTree(root, source=source, lens=self.name)

    def _convert(self, element: ET.Element, parent: ConfigNode,
                 depth: int = 1) -> None:
        if depth > MAX_NESTING:
            raise self.error(TOO_DEEP)
        tag = self._strip_namespace(element.tag)
        text = (element.text or "").strip()
        node = parent.add(tag, text or None)
        for name, value in sorted(element.attrib.items()):
            node.add(f"@{self._strip_namespace(name)}", value)
        for child in element:
            self._convert(child, node, depth + 1)

    @staticmethod
    def _strip_namespace(tag: str) -> str:
        return tag.rsplit("}", 1)[-1]
