"""Output checks that do not trust the program under test.

Every check reads the report files of one CLI invocation and returns a
list of failure messages; an empty list means the output is correct.
Expected values come from the corpus generator, the CFG oracle and the
metric identities, never from classmetrics itself.
"""

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

# Integer sub-metric columns; with AVCC and INTR (not a sheet column)
# they sum to CCC.
_INT_PARTS = ("NM", "MOA", "EMC", "NS", "NSB", "NPI", "NQ")
_TWO_DECIMALS = Fraction(1, 200)  # half a unit of the last printed digit
_AVCC_DIGITS = Fraction(1, 10 ** 12)  # AVCC prints 14 significant digits

# Weyuker verdicts the CCC metric must reach on any corpus: P8 (rename
# invariance) and P9 (no superadditivity) hold by construction.
STRUCTURAL_VERDICTS = {8: {"no-counterexample-found"},
                       9: {"no-counterexample-found"}}
# Acceptance criterion 4: the synthetic corpus at seed 42, 1000 trials.
CRITERION_4_VERDICTS = {
    1: {"witnessed"}, 2: {"not-applicable"}, 3: {"witnessed"},
    4: {"witnessed"}, 5: {"witnessed", "no-counterexample-found"},
    6: {"witnessed"}, 7: {"not-applicable"}, **STRUCTURAL_VERDICTS,
}


def digests(out: Path) -> dict[str, str]:
    """sha256 of every report file in an output directory. Reads with
    open() because a traced run counts the CLI's Path reads."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.is_file():
            with open(path, "rb") as fh:
                found[path.name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def run_checks(*checks) -> list[str]:
    """Run zero-argument checks; a check that raises is one failure."""
    failures = []
    for check in checks:
        try:
            failures.extend(check())
        except Exception as exc:  # a malformed report must not end the run
            failures.append(f"{getattr(check, '__name__', 'check')} raised "
                            f"{type(exc).__name__}: {exc}")
    return failures


def read_sheet(out: Path) -> list[dict]:
    with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def expect_files(out: Path, names: list[str]) -> list[str]:
    missing = [n for n in names if not (out / n).is_file()]
    return [f"missing report file {n}" for n in missing]


def identities(rows: list[dict]) -> list[str]:
    """CC = IV + CMC and AVCC = CMC / NM on every row."""
    failures = []
    for row in rows:
        nm, cmc = int(row["NM"]), Fraction(row["CMC"])
        if Fraction(row["CC"]) != int(row["IV"]) + cmc:
            failures.append(f"{row['CL']}: CC {row['CC']} != IV {row['IV']}"
                            f" + CMC {row['CMC']}")
        avcc = cmc / nm if nm else Fraction(0)
        if abs(Fraction(row["AVCC"]) - avcc) > _AVCC_DIGITS * max(1, avcc):
            failures.append(f"{row['CL']}: AVCC {row['AVCC']} != CMC/NM "
                            f"{float(avcc)}")
    return failures


def ccc_sum(rows: list[dict], intr: dict[str, int]) -> list[str]:
    """CCC equals the sum of the sub-metric columns plus INTR, within the
    rounding of the two printed decimals. AVCC enters exactly, as CMC/NM."""
    failures = []
    for row in rows:
        nm = int(row["NM"])
        avcc = Fraction(row["CMC"]) / nm if nm else Fraction(0)
        expected = (sum(int(row[c]) for c in _INT_PARTS) + avcc
                    + intr[row["CL"]])
        if abs(Fraction(row["CCC"]) - expected) > _TWO_DECIMALS:
            failures.append(f"{row['CL']}: CCC {row['CCC']} != "
                            f"{float(expected):.4f}")
    return failures


def json_matches_csv(out: Path, rows: list[dict]) -> list[str]:
    records = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    if len(records) != len(rows):
        return [f"metrics.json has {len(records)} rows, csv {len(rows)}"]
    failures = []
    for i, (record, row) in enumerate(zip(records, rows)):
        as_text = {k: str(v) for k, v in record.items()}
        if as_text != row:
            failures.append(f"row {i}: json {as_text} != csv {row}")
    return failures


def weyuker_verdicts(out: Path, allowed: dict[int, set]) -> list[str]:
    payload = json.loads((out / "weyuker.json").read_text(encoding="utf-8"))
    verdicts = {p["property"]: p["verdict"] for p in payload["properties"]}
    return [f"P{k}: verdict {verdicts.get(k)!r}, expected one of "
            f"{sorted(ok)}" for k, ok in sorted(allowed.items())
            if verdicts.get(k) not in ok]


def input_count(out: Path, files: int) -> list[str]:
    run = json.loads((out / "run.json").read_text(encoding="utf-8"))
    seen = run["inputs"]["files"]
    return [] if seen == files else [f"run.json counts {seen} inputs, "
                                     f"corpus has {files}"]


def copy_invariance(rows: list[dict], fixture_types: dict,
                    copies: int) -> list[str]:
    """Each fixture class has one row per copy, all identical, whether the
    copy carries inserted comments or not."""
    by_name: dict[str, list[dict]] = {}
    for row in rows:
        by_name.setdefault(row["CL"], []).append(row)
    failures = []
    if set(by_name) != set(fixture_types):
        failures.append(f"classes {sorted(set(by_name) ^ set(fixture_types))}"
                        f" differ from the fixtures")
    for name, group in sorted(by_name.items()):
        if len(group) != copies:
            failures.append(f"{name}: {len(group)} rows for {copies} copies")
        variants = {tuple(r.values()) for r in group}
        if len(variants) > 1:
            failures.append(f"{name}: {len(variants)} distinct rows across "
                            f"copies")
    return failures


def cfg_oracle(rows: list[dict], oracle: dict) -> list[str]:
    """NM is the generated method count; WMC (weighted) and CMC equal the
    sum of E - N + 2P over the class's methods."""
    failures = []
    seen = {row["CL"] for row in rows}
    if seen != set(oracle) or len(rows) != len(oracle):
        failures.append(f"{len(rows)} rows for {len(oracle)} generated "
                        f"classes")
    for row in rows:
        if row["CL"] not in oracle:
            continue
        methods, complexity, _ = oracle[row["CL"]]
        got = (int(row["NM"]), Fraction(row["WMC"]), Fraction(row["CMC"]))
        if got != (methods, complexity, complexity):
            failures.append(f"{row['CL']}: NM/WMC/CMC {row['NM']}/"
                            f"{row['WMC']}/{row['CMC']}, oracle "
                            f"{methods}/{complexity}/{complexity}")
    return failures
