"""Seeded structured method bodies and their control-flow-graph oracle.

A body is a list of statement nodes. `cyclomatic` wires the explicit
control-flow graph of a body and returns E - N + 2P (P = 1), without
looking at any Java token, so it is an oracle independent of the
decision-point counter under test. `render` prints the same body as
Java. Bodies hold no break-out-of-loop, continue or early return, so
every node's graph shape is fixed by its kind alone.
"""

import random
from dataclasses import dataclass, field


@dataclass
class Expr:
    ternaries: int = 0


@dataclass
class If:
    then_body: list
    else_body: list | None = None


@dataclass
class Loop:
    kind: str  # while | do | for
    body: list


@dataclass
class Switch:
    groups: list  # (body, ends_with_break) per case label
    default_body: list | None = None


@dataclass
class Try:
    body: list
    handlers: list = field(default_factory=list)


class _Graph:
    def __init__(self):
        self.nodes = 0
        self.edges = 0

    def node(self) -> int:
        self.nodes += 1
        return self.nodes - 1

    def link(self, *pairs) -> None:
        self.edges += len(pairs)


def cyclomatic(body: list) -> int:
    """E - N + 2 of the method's control-flow graph."""
    g = _Graph()
    _seq(body, g, g.node())
    return g.edges - g.nodes + 2


def _seq(body: list, g: _Graph, pred: int) -> int:
    for stmt in body:
        pred = _stmt(stmt, g, pred)
    return pred


def _stmt(stmt, g: _Graph, pred: int) -> int:
    if isinstance(stmt, Expr):
        cur = g.node()
        g.link((pred, cur))
        for _ in range(stmt.ternaries):
            yes, no, join = g.node(), g.node(), g.node()
            g.link((cur, yes), (cur, no), (yes, join), (no, join))
            cur = join
        return cur
    if isinstance(stmt, If):
        cond, after = g.node(), g.node()
        g.link((pred, cond))
        g.link((_seq(stmt.then_body, g, cond), after))
        if stmt.else_body is None:
            g.link((cond, after))
        else:
            g.link((_seq(stmt.else_body, g, cond), after))
        return after
    if isinstance(stmt, Loop):
        if stmt.kind == "do":
            top = g.node()
            g.link((pred, top))
            cond = g.node()
            g.link((_seq(stmt.body, g, top), cond), (cond, top))
        else:
            cond = g.node()
            if stmt.kind == "for":
                init = g.node()
                g.link((pred, init), (init, cond))
                update = g.node()
                g.link((_seq(stmt.body, g, cond), update), (update, cond))
            else:
                g.link((pred, cond))
                g.link((_seq(stmt.body, g, cond), cond))
        after = g.node()
        g.link((cond, after))
        return after
    if isinstance(stmt, Switch):
        head, after = g.node(), g.node()
        g.link((pred, head))
        groups = list(stmt.groups)
        if stmt.default_body is not None:
            groups.append((stmt.default_body, True))
        entries = [g.node() for _ in groups]
        for entry in entries:
            g.link((head, entry))
        for i, (body, ends_with_break) in enumerate(groups):
            exit_ = _seq(body, g, entries[i])
            last = ends_with_break or i + 1 == len(groups)
            g.link((exit_, after if last else entries[i + 1]))
        if stmt.default_body is None:
            g.link((head, after))
        return after
    if isinstance(stmt, Try):
        entry, after = g.node(), g.node()
        g.link((pred, entry))
        g.link((_seq(stmt.body, g, entry), after))
        for handler in stmt.handlers:
            catch = g.node()
            g.link((entry, catch))
            g.link((_seq(handler, g, catch), after))
        return after
    raise TypeError(f"unknown statement node: {stmt!r}")


def render(body: list, indent: int) -> list[str]:
    """Java source lines for a body at the given indent."""
    return [line for stmt in body for line in _render(stmt, " " * indent)]


def _render(stmt, pad: str) -> list[str]:
    inner = len(pad) + 2
    if isinstance(stmt, Expr):
        expr = "x + 1"
        for _ in range(stmt.ternaries):
            expr = f"(a < b ? {expr} : x - 1)"
        return [f"{pad}x = {expr};"]
    if isinstance(stmt, If):
        lines = [f"{pad}if (a < b) {{", *render(stmt.then_body, inner)]
        if stmt.else_body is not None:
            lines += [f"{pad}}} else {{", *render(stmt.else_body, inner)]
        return lines + [f"{pad}}}"]
    if isinstance(stmt, Loop):
        body = render(stmt.body, inner)
        if stmt.kind == "do":
            return [f"{pad}do {{", *body, f"{pad}}} while (a < b);"]
        if stmt.kind == "for":
            return [f"{pad}for (int i = 0; i < n; i = i + 1) {{", *body,
                    f"{pad}}}"]
        return [f"{pad}while (a < b) {{", *body, f"{pad}}}"]
    if isinstance(stmt, Switch):
        lines = [f"{pad}switch (k) {{"]
        for label, (body, ends_with_break) in enumerate(stmt.groups):
            lines += [f"{pad}case {label}:", *render(body, inner)]
            if ends_with_break:
                lines.append(f"{pad}  break;")
        if stmt.default_body is not None:
            lines += [f"{pad}default:", *render(stmt.default_body, inner),
                      f"{pad}  break;"]
        return lines + [f"{pad}}}"]
    if isinstance(stmt, Try):
        lines = [f"{pad}try {{", *render(stmt.body, inner)]
        for i, handler in enumerate(stmt.handlers):
            lines += [f"{pad}}} catch (Exception e{i}) {{",
                      *render(handler, inner)]
        return lines + [f"{pad}}}"]
    raise TypeError(f"unknown statement node: {stmt!r}")


def random_body(rng: random.Random, depth: int = 0) -> list:
    """1-4 statements at the top, 1-3 below, nesting at most 3 deep."""
    return [_random_stmt(rng, depth)
            for _ in range(rng.randint(1, 3 if depth else 4))]


def _random_stmt(rng: random.Random, depth: int):
    if depth >= 3:
        return Expr(rng.choice([0, 0, 0, 1]))

    def nested():
        return random_body(rng, depth + 1)

    def maybe_empty():
        return nested() if rng.random() < 0.8 else []

    pick = rng.random()
    if pick < 0.34:
        return Expr(rng.choice([0, 0, 0, 1, 2]))
    if pick < 0.52:
        return If(nested(), nested() if rng.random() < 0.5 else None)
    if pick < 0.64:
        return Loop("while", maybe_empty())
    if pick < 0.74:
        return Loop("do", nested())
    if pick < 0.84:
        return Loop("for", maybe_empty())
    if pick < 0.94:
        groups = [(maybe_empty(), rng.random() < 0.7)
                  for _ in range(rng.randint(1, 3))]
        return Switch(groups, nested() if rng.random() < 0.6 else None)
    return Try(nested(), [nested() for _ in range(rng.randint(1, 2))])
