"""ASCII chart helpers for examples and benchmark artifacts.

No plotting stack is available offline, so the figure-style outputs
are rendered as fixed-width text: the stacked memory-capacity bar.
"""

from __future__ import annotations

from ..errors import ReproError

_BLOCKS = " ▏▎▍▌▋▊▉█"


def stacked_capacity_bar(segments: dict[str, float], total: float,
                         width: int = 64) -> str:
    """One stacked bar (the Fig. 1 DDR occupancy graphic).

    ``segments`` are sized parts of ``total``; the remainder renders as
    free space.
    """
    if total <= 0:
        raise ReproError("total must be positive")
    used = sum(segments.values())
    if used > total * 1.001:
        raise ReproError("segments exceed the total")
    glyphs = "▓▒░"
    bar = ""
    legend = []
    for i, (name, size) in enumerate(segments.items()):
        n = round(size / total * width)
        glyph = glyphs[i % len(glyphs)]
        bar += glyph * n
        legend.append(f"{glyph} {name} ({size / total:.1%})")
    bar += "." * max(0, width - len(bar))
    legend.append(f". free ({(total - used) / total:.1%})")
    return f"[{bar[:width]}]\n" + "   ".join(legend)
