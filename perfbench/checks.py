"""Output checks for every benchmark command, run outside its timed span.

A check that fails raises WrongAnswer, which ends the benchmark with a
non-zero exit code.  Outputs are parsed the way a user reads them: the
JSON report of `recognize`, the text of `menger` and `falsify`.
"""

from __future__ import annotations

import json
import re

PROOF_STATUSES = ("confirmed", "skipped", "cut-undefined")


class WrongAnswer(Exception):
    pass


class Checker:
    def __init__(self, pkg, named):
        """pkg: the imported package, before any tracing is installed;
        named: every input path mapped to its loaded graph file."""
        self.named = named
        self.embedding_from_json = pkg.cli.embedding_from_json
        self.check_m_subdivision = pkg.patterns.check_m_subdivision
        self.earliest_arrival = pkg.temporal.earliest_arrival
        self._temporal = {}
        self._done = {}

    def check(self, cmd, code, out):
        """What the run records about a correct output; raises WrongAnswer."""
        # the JSON report carries a wall-clock field; everything else repeats
        key = (tuple(cmd.argv), code, re.sub(r'"elapsed_ms": [^,\n]+', "", out))
        if key not in self._done:
            try:
                self._done[key] = getattr(self, f"_{cmd.kind}")(cmd, code, out)
            except (IndexError, KeyError, TypeError, ValueError) as exc:
                raise WrongAnswer(f"{' '.join(cmd.argv)}: unreadable output ({exc!r})") from None
            except WrongAnswer as exc:
                raise WrongAnswer(f"{' '.join(cmd.argv)}: {exc}") from None
        return self._done[key]

    # ------------------------------------------------------------------

    def _recognize(self, cmd, code, out):
        want = cmd.expect
        try:
            data = json.loads(out)
        except ValueError:
            raise WrongAnswer("output is not a JSON report") from None
        if data["verdict"] != want["verdict"]:
            raise WrongAnswer(f"verdict {data['verdict']}, expected {want['verdict']}")
        if code != (0 if want["verdict"] == "mengerian" else 1):
            raise WrongAnswer(f"exit code {code} for verdict {data['verdict']}")
        diag = data["diagnostics"]
        info = {"chains_examined": diag["chains_examined"],
                "crossed": len(diag["crossed_structures"]), "status": None}
        if want["verdict"] == "mengerian":
            if want["crossed"] and not diag["crossed_structures"]:
                raise WrongAnswer("no crossed structure reported")
            return info
        named = self.named[cmd.path]
        try:
            emb = self.embedding_from_json(named, data["embedding"])
        except (KeyError, ValueError, TypeError) as exc:
            raise WrongAnswer(f"embedding does not rebuild: {exc}") from None
        reason = self.check_m_subdivision(named.graph, emb)
        if reason is not None:
            raise WrongAnswer(f"embedding is not an m-subdivision: {reason}")
        if not want["proof"]:
            return info
        witness = data["witness"]
        status = witness["status"]
        if status not in PROOF_STATUSES:
            raise WrongAnswer(f"witness status {status!r}")
        if status == "confirmed" and not witness["measured_p"] < witness["measured_c"]:
            raise WrongAnswer("confirmed witness without measured p < c")
        if set(witness["times"]) != {str(e.id) for e in named.graph.edges}:
            raise WrongAnswer("witness labeling does not cover the host edges")
        info["status"] = status
        return info

    def _menger(self, cmd, code, out):
        want = cmd.expect
        if code != 0:
            raise WrongAnswer(f"exit code {code}")
        named = self.named[cmd.path]
        tg = self._temporal.get(cmd.path)
        if tg is None:
            tg = self._temporal[cmd.path] = named.temporal()
        s, t = named.id(want["s"]), named.id(want["t"])
        lines = out.splitlines()
        prime = "'" if want["edge"] else ""
        p = _count(lines[0], f"p{prime}")
        k = 1 + p
        paths = [_path(named, line) for line in lines[1:k]]
        c = _count(lines[k], f"c{prime}")
        cut_fields = lines[k + 1].split(":", 1)[1].split()
        if len(paths) != p:
            raise WrongAnswer(f"{len(paths)} paths printed for p = {p}")
        used = {}
        for vs, labels in paths:
            if vs[0] != s or vs[-1] != t or len(set(vs)) != len(vs):
                raise WrongAnswer(f"path {vs} is not a simple s-t path")
            if any(a > b for a, b in zip(labels, labels[1:])):
                raise WrongAnswer(f"path {vs} goes back in time")
            for u, v, lab in zip(vs, vs[1:], labels):
                key = (min(u, v), max(u, v), lab)
                used[key] = used.get(key, 0) + 1
        for (u, v, lab), n_used in used.items():
            have = sum(1 for e in named.graph.parallel_edges(u, v) if tg.label(e) == lab)
            if have == 0:
                raise WrongAnswer(f"no edge {u}-{v} with label {lab}")
            if want["edge"] and n_used > have:
                raise WrongAnswer(f"edge {u}-{v} with label {lab} used {n_used} times")
        if want["edge"]:
            if p != c:
                raise WrongAnswer(f"p' = {p} but c' = {c}")
            cut = [int(x) for x in cut_fields]
            if len(set(cut)) != c or t in self.earliest_arrival(tg, s, banned_edges=cut):
                raise WrongAnswer("printed edge cut does not separate the pair")
            return {}
        interiors = [set(vs[1:-1]) for vs, _ in paths]
        if sum(len(x) for x in interiors) != len(set().union(*interiors)):
            raise WrongAnswer("paths share an interior vertex")
        cut = [named.id(x) for x in cut_fields]
        if len(set(cut)) != c or {s, t} & set(cut):
            raise WrongAnswer("printed vertex cut is malformed")
        if t in self.earliest_arrival(tg, s, banned_vertices=cut):
            raise WrongAnswer("printed vertex cut does not separate the pair")
        if p > c:
            raise WrongAnswer(f"p = {p} exceeds c = {c}")
        if want["equal"] and p != c:
            raise WrongAnswer(f"p = {p} < c = {c} on a Mengerian input")
        return {}

    def _falsify(self, cmd, code, out):
        if code != 0 or out.strip() != "no counterexample":
            raise WrongAnswer(f"exit code {code}, output {out.strip()[:80]!r}")
        return {}


def _count(line, name):
    m = re.fullmatch(rf"{re.escape(name)} = (\d+)", line.strip())
    if m is None:
        raise WrongAnswer(f"expected '{name} = <n>', got {line!r}")
    return int(m.group(1))


def _path(named, line):
    """`path i: a -3- b -5- c` as vertex ids and labels."""
    head, _, body = line.partition(":")
    if not head.strip().startswith("path"):
        raise WrongAnswer(f"expected a path line, got {line!r}")
    fields = body.split()
    try:
        return ([named.id(x) for x in fields[0::2]],
                [int(x.strip("-")) for x in fields[1::2]])
    except ValueError as exc:
        raise WrongAnswer(f"unreadable path line {line!r}: {exc}") from None
