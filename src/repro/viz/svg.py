"""Minimal SVG document builder.

The visualization tool renders to self-contained HTML with inline SVG —
no JavaScript frameworks, no external assets — so a dashboard file
opens anywhere (including the mobile browsers §V targets).  This module
is the drawing primitive layer: elements are built as escaped strings
with numeric attributes rounded to keep files compact.
"""

from __future__ import annotations

import html
from typing import List, Sequence, Tuple

__all__ = ["Svg", "path_from_points"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}".rstrip("0").rstrip(".")
    return str(value)


def _attrs(kwargs: dict) -> str:
    parts = []
    for key, value in kwargs.items():
        name = key.rstrip("_").replace("_", "-")
        parts.append(f'{name}="{html.escape(_fmt(value), quote=True)}"')
    return " ".join(parts)


class Svg:
    """An SVG fragment of fixed size, composed of stacked elements."""

    def __init__(self, width: float, height: float) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("SVG dimensions must be positive")
        self.width = width
        self.height = height
        self._elements: List[str] = []

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def rect(self, x: float, y: float, w: float, h: float, **kwargs) -> "Svg":
        self._elements.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f"{_attrs(kwargs)}/>"
        )
        return self

    def line(self, x1: float, y1: float, x2: float, y2: float, **kwargs) -> "Svg":
        self._elements.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f"{_attrs(kwargs)}/>"
        )
        return self

    def circle(self, cx: float, cy: float, r: float, **kwargs) -> "Svg":
        self._elements.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" {_attrs(kwargs)}/>'
        )
        return self

    def path(self, d: str, **kwargs) -> "Svg":
        self._elements.append(f'<path d="{html.escape(d, quote=True)}" {_attrs(kwargs)}/>')
        return self

    def text(self, x: float, y: float, content: str, **kwargs) -> "Svg":
        self._elements.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" {_attrs(kwargs)}>'
            f"{html.escape(content)}</text>"
        )
        return self

    def title(self, content: str) -> "Svg":
        """Accessible hover tooltip for the whole fragment."""
        self._elements.append(f"<title>{html.escape(content)}</title>")
        return self

    def raw(self, fragment: str) -> "Svg":
        """Append a pre-built SVG fragment (caller responsible for escaping)."""
        self._elements.append(fragment)
        return self

    # ------------------------------------------------------------------
    def to_string(self, css_class: str | None = None) -> str:
        cls = f' class="{html.escape(css_class, quote=True)}"' if css_class else ""
        body = "".join(self._elements)
        width, height = _fmt(self.width), _fmt(self.height)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}"{cls}>{body}</svg>'
        )


def path_from_points(points: Sequence[Tuple[float, float]]) -> str:
    """A move-then-line path through the points (empty string if < 2)."""
    if len(points) < 2:
        return ""
    head = points[0]
    segments = [f"M {_fmt(head[0])} {_fmt(head[1])}"]
    segments.extend(f"L {_fmt(x)} {_fmt(y)}" for x, y in points[1:])
    return " ".join(segments)
