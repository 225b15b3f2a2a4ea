#!/usr/bin/env python3
"""Validates a matchsparse_serve Prometheus text exposition (DESIGN.md §16).

Usage: check_exposition.py SCRAPE1 [SCRAPE2]

Checks, on each scrape:
  - every non-comment line is `<name>[{labels}] <number>` with a metric
    name in the exposition charset,
  - every sample's family was announced by # HELP and # TYPE lines
    before its first sample,
  - each family is announced once (one HELP and one TYPE line) and its
    lines form one group: no sample of a family after another family's
    HELP/TYPE lines,
  - counter samples (TYPE counter) are non-negative integers and their
    names end in `_total`,
  - summary families keep their quantile series ordered: the 0.5
    estimate never exceeds the 0.99 estimate for the same label set,
  - summary `_count`/`_sum` series exist for every quantile series.

With a second scrape (taken later from the same server), additionally
checks every counter and every summary `_count` is monotone.

Exit status: 0 clean, 1 violations (listed on stderr), 2 usage.
"""
import math
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LINE_RE = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
                     r"(?P<labels>\{[^}]*\})?"
                     r" (?P<value>\S+)$")

errors = []


def err(msg):
    errors.append(msg)


def parse_value(text):
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def family_of(name):
    """The TYPE family a series belongs to: summaries expose their
    quantile series under the bare family name and _sum/_count under
    suffixed names."""
    for suffix in ("_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse_scrape(path):
    """Returns (samples, types): samples maps 'name{labels}' -> value,
    types maps family -> TYPE string."""
    samples = {}
    types = {}
    helped = set()
    current = None  # the family whose HELP/TYPE lines came last
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            where = f"{path}:{lineno}"
            if line.startswith("# HELP "):
                parts = line.split(" ", 3)
                if len(parts) < 4 or not NAME_RE.match(parts[2]):
                    err(f"{where}: malformed HELP line: {line}")
                    continue
                if parts[2] in helped:
                    err(f"{where}: family {parts[2]} announced twice "
                        f"(second HELP)")
                helped.add(parts[2])
                current = parts[2]
                continue
            if line.startswith("# TYPE "):
                parts = line.split(" ")
                if len(parts) != 4 or parts[3] not in (
                        "counter", "gauge", "summary", "histogram",
                        "untyped"):
                    err(f"{where}: malformed TYPE line: {line}")
                    continue
                if parts[2] not in helped:
                    err(f"{where}: TYPE without preceding HELP: {parts[2]}")
                if parts[2] in types:
                    err(f"{where}: family {parts[2]} announced twice "
                        f"(second TYPE)")
                types[parts[2]] = parts[3]
                current = parts[2]
                continue
            if line.startswith("#"):
                continue  # free-form comment
            m = LINE_RE.match(line)
            if not m:
                err(f"{where}: unparseable sample line: {line}")
                continue
            try:
                value = parse_value(m.group("value"))
            except ValueError:
                err(f"{where}: bad sample value: {line}")
                continue
            name = m.group("name")
            family = family_of(name)
            if family not in types and name not in types:
                err(f"{where}: sample before any TYPE for its family: "
                    f"{name}")
            elif current not in (family, name):
                err(f"{where}: sample {name} outside its family's group "
                    f"(split by {current})")
            key = name + (m.group("labels") or "")
            if key in samples:
                err(f"{where}: duplicate series: {key}")
            samples[key] = value
            ftype = types.get(family, types.get(name))
            if ftype == "counter":
                if not (value >= 0 and float(value).is_integer()):
                    err(f"{where}: counter {key} is not a non-negative "
                        f"integer: {value}")
                if not name.endswith("_total"):
                    err(f"{where}: counter {name} does not end in _total")
                if name.endswith("_total_total"):
                    err(f"{where}: counter {name} doubled its _total "
                        f"suffix")
    return samples, types


def check_summaries(samples, types, path):
    quantile_re = re.compile(r'^(?P<name>[a-zA-Z0-9_:]+)\{(?P<rest>.*)'
                             r'quantile="(?P<q>[0-9.]+)"\}$')
    seen = {}
    for key, value in samples.items():
        m = quantile_re.match(key)
        if not m or types.get(m.group("name")) != "summary":
            continue
        base = (m.group("name"), m.group("rest"))
        seen.setdefault(base, {})[float(m.group("q"))] = value
    for (name, rest), by_q in seen.items():
        qs = sorted(by_q)
        for lo, hi in zip(qs, qs[1:]):
            if by_q[lo] > by_q[hi]:
                err(f"{path}: {name}{{{rest}}} q={lo} estimate "
                    f"{by_q[lo]} exceeds q={hi} estimate {by_q[hi]}")
        label_prefix = rest.rstrip(",")
        labels = "{" + label_prefix + "}" if label_prefix else ""
        for suffix in ("_count", "_sum"):
            if name + suffix + labels not in samples:
                err(f"{path}: summary {name}{labels} is missing its "
                    f"{suffix} series")


def check_monotone(before, after, types, path1, path2):
    for key, old in before.items():
        name = key.split("{", 1)[0]
        is_counter = types.get(family_of(name)) == "counter"
        is_summary_count = (name.endswith("_count")
                            and types.get(family_of(name)) == "summary")
        if not (is_counter or is_summary_count):
            continue
        new = after.get(key)
        if new is None:
            err(f"{path2}: series {key} disappeared between scrapes")
        elif new < old:
            err(f"{path2}: {key} went backwards: {old} -> {new} "
                f"(vs {path1})")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    samples1, types1 = parse_scrape(argv[1])
    if not samples1:
        err(f"{argv[1]}: no samples at all")
    check_summaries(samples1, types1, argv[1])
    if len(argv) == 3:
        samples2, types2 = parse_scrape(argv[2])
        check_summaries(samples2, types2, argv[2])
        check_monotone(samples1, samples2, types2, argv[1], argv[2])
    if errors:
        for e in errors:
            print(f"check_exposition: {e}", file=sys.stderr)
        print(f"check_exposition: {len(errors)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"check_exposition: OK ({len(samples1)} series)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
