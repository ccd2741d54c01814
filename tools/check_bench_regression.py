#!/usr/bin/env python3
"""Bench-regression gate for BENCH_refine.json.

Diffs a freshly produced BENCH_refine.json against the committed baseline
and fails (exit 1) on:

 1. Timing regression: for every series present in both files with an
    `iteration_ms` list, the fresh median-iteration-ms — normalized by the
    file's `full_rebuild` median so the gate is host-speed-invariant
    (shared CI runners are heterogeneous; absolute ms across machines is
    noise, the ratio to the in-process reference engine is not) — must not
    exceed the baseline's normalized median by more than --max-regression
    (default 20%). Medians, not means: one GC hiccup or cold first
    iteration must not trip the gate. If either file lacks the
    `full_rebuild` anchor, the comparison falls back to absolute medians.

 2. Byte regression: for the delta-exchange series (bsp_push_varint,
    bsp_push_grouped_varint, and their raw-record figures bsp_push,
    bsp_push_grouped — 16 bytes per steady remote delta record, derived
    from the varint runs), any increase of `steady_s2_remote_bytes` over
    the baseline fails outright — the steady-state superstep-2 byte count is
    a deterministic message-accounting result, not a timing, so there is no
    noise to tolerate. The raw-record series catch growth in the record
    count; the varint series catch a framing or delta-width regression of
    the grouped codec even when the record count is unchanged. The self-verifying envelope keeps its
    overhead out of `steady_s2_remote_bytes`, so the fault-free payload
    series stays comparable across the protocol change.

 3. Envelope budget: for the varint-wire series, the fresh
    `steady_s2_envelope_bytes` (integrity framing: header varints + CRC32C)
    must stay <= 4% of the fresh `steady_s2_remote_bytes` varint payload.
    This gate reads only the fresh file — baselines that predate the
    envelope simply lack the field and are skipped.

 4. Ingest gate (only when --ingest-fresh/--ingest-baseline are given):
    for the streaming-ingest series in BENCH_ingest.json, any increase of
    `spilled_bytes` over the baseline fails outright — the spill volume is
    a deterministic function of the generator seed and the threshold fit,
    so growth means the budget accounting or the split rule changed; and
    the fresh `refine_slowdown` (spilled-graph iteration time over the
    in-memory iteration time, a within-run ratio and therefore
    host-speed-invariant) must not exceed the baseline's slowdown by more
    than --max-regression.

 5. Serving gate (only when --serving-fresh/--serving-baseline are given):
    for every scenario series in BENCH_serving.json, the during-migration
    p99 inflation — worst during-phase p99 divided by the run's starting
    p99, a within-run ratio and therefore host-speed-invariant — must not
    exceed the baseline's inflation by more than --max-regression. This is
    the "online repartitioning must not wreck the tail while it migrates"
    contract; the absolute before/after win is enforced inside the bench
    binary itself (it exits nonzero unless post-repartition p99 beats
    pre-repartition p99 on the power-law scenario).

Missing or unreadable baseline → exit 0 with a SKIP notice (first run on a
branch that predates the baseline, or a series newly added by this change).
"""

import argparse
import json
import statistics
import sys

ANCHOR_SERIES = "full_rebuild"
DELTA_BYTE_SERIES = ("bsp_push", "bsp_push_varint", "bsp_push_grouped",
                     "bsp_push_grouped_varint")
ENVELOPE_SERIES = ("bsp_push_varint", "bsp_push_grouped_varint")
ENVELOPE_BUDGET = 0.04
SERVING_SERIES = ("serving_powerlaw", "serving_hotkey", "serving_diurnal",
                  "serving_worker_kill")
INGEST_BYTE_SERIES = ("ingest_edgelist", "ingest_binary")


MISSING = object()


def load(path):
    """Parsed JSON dict, MISSING if the file does not exist, or None if it
    exists but cannot be parsed (corrupt baselines must FAIL, not silently
    disable the gate)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return MISSING
    except (OSError, ValueError):
        return None


def series_median_ms(doc, name):
    series = doc.get(name)
    if not isinstance(series, dict):
        return None
    samples = series.get("iteration_ms")
    if not isinstance(samples, list) or not samples:
        return None
    return statistics.median(samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True,
                        help="BENCH_refine.json produced by this run")
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_refine.json to diff against")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="allowed fractional median-ms regression")
    parser.add_argument("--ingest-fresh", default=None,
                        help="BENCH_ingest.json produced by this run "
                        "(enables the streaming-ingest gate)")
    parser.add_argument("--ingest-baseline", default=None,
                        help="committed BENCH_ingest.json to diff against")
    parser.add_argument("--serving-fresh", default=None,
                        help="BENCH_serving.json produced by this run "
                        "(enables the serving p99 gate)")
    parser.add_argument("--serving-baseline", default=None,
                        help="committed BENCH_serving.json to diff against")
    args = parser.parse_args()

    baseline = load(args.baseline)
    if baseline is MISSING:
        print(f"SKIP: baseline {args.baseline} does not exist — nothing to "
              "diff against")
        return 0
    if not isinstance(baseline, dict):
        print(f"FAIL: baseline {args.baseline} exists but is unreadable — "
              "a corrupt baseline must not silently disable the gate")
        return 1
    fresh = load(args.fresh)
    if not isinstance(fresh, dict):
        print(f"FAIL: fresh results {args.fresh} missing or unreadable")
        return 1

    failures = []

    # --- timing gate: normalized median iteration ms per shared series ---
    fresh_anchor = series_median_ms(fresh, ANCHOR_SERIES)
    base_anchor = series_median_ms(baseline, ANCHOR_SERIES)
    normalized = fresh_anchor is not None and base_anchor is not None \
        and fresh_anchor > 0 and base_anchor > 0
    mode = ("normalized by %s median" % ANCHOR_SERIES) if normalized \
        else "absolute (no anchor series)"
    print(f"timing gate ({mode}, threshold "
          f"{args.max_regression:.0%}):")
    for name in sorted(fresh.keys()):
        fresh_median = series_median_ms(fresh, name)
        base_median = series_median_ms(baseline, name)
        if fresh_median is None or base_median is None:
            continue
        if normalized:
            if name == ANCHOR_SERIES:
                # The anchor's normalized ratio is 1.0 by definition, and
                # comparing it on absolute ms would reintroduce exactly the
                # cross-host noise the normalization removes.
                continue
            fresh_metric = fresh_median / fresh_anchor
            base_metric = base_median / base_anchor
        else:
            fresh_metric = fresh_median
            base_metric = base_median
        if base_metric <= 0:
            continue
        ratio = fresh_metric / base_metric
        verdict = "ok"
        if ratio > 1.0 + args.max_regression:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: median iteration ms regressed {ratio - 1.0:+.1%} "
                f"(fresh {fresh_median:.3f} ms vs baseline "
                f"{base_median:.3f} ms, {mode})")
        print(f"  {name:<18} fresh {fresh_median:9.3f} ms  baseline "
              f"{base_median:9.3f} ms  ratio {ratio:6.3f}  {verdict}")

    # --- byte gate: deterministic steady-state superstep-2 volume ---
    print("superstep-2 byte gate (delta-exchange series, any increase "
          "fails):")
    for name in DELTA_BYTE_SERIES:
        fresh_series = fresh.get(name)
        base_series = baseline.get(name)
        if not isinstance(fresh_series, dict) or \
                not isinstance(base_series, dict):
            print(f"  {name:<18} not in both files — skipped")
            continue
        fresh_bytes = fresh_series.get("steady_s2_remote_bytes")
        base_bytes = base_series.get("steady_s2_remote_bytes")
        if not isinstance(fresh_bytes, int) or not isinstance(base_bytes,
                                                              int):
            print(f"  {name:<18} steady_s2_remote_bytes missing — skipped")
            continue
        verdict = "ok"
        if fresh_bytes > base_bytes:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: steady-state superstep-2 bytes grew "
                f"{fresh_bytes - base_bytes:+d} "
                f"(fresh {fresh_bytes} vs baseline {base_bytes})")
        print(f"  {name:<18} fresh {fresh_bytes:>12}  baseline "
              f"{base_bytes:>12}  {verdict}")

    # --- envelope gate: integrity framing stays within its 4% budget ---
    print(f"envelope budget gate (fresh file only, <= "
          f"{ENVELOPE_BUDGET:.0%} of the varint payload):")
    for name in ENVELOPE_SERIES:
        series = fresh.get(name)
        if not isinstance(series, dict):
            print(f"  {name:<18} not in fresh file — skipped")
            continue
        envelope = series.get("steady_s2_envelope_bytes")
        payload = series.get("steady_s2_remote_bytes")
        if not isinstance(envelope, int) or not isinstance(payload, int) \
                or payload <= 0:
            print(f"  {name:<18} envelope/payload fields missing — skipped")
            continue
        fraction = envelope / payload
        verdict = "ok"
        if fraction > ENVELOPE_BUDGET:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: envelope overhead {envelope} bytes is "
                f"{fraction:.1%} of the {payload}-byte varint payload "
                f"(budget {ENVELOPE_BUDGET:.0%})")
        print(f"  {name:<18} envelope {envelope:>10}  payload "
              f"{payload:>12}  {fraction:6.2%}  {verdict}")

    # --- ingest gate: spill volume (deterministic) + refine slowdown ---
    if args.ingest_fresh is not None:
        ingest_fresh = load(args.ingest_fresh)
        ingest_base = load(args.ingest_baseline) \
            if args.ingest_baseline is not None else MISSING
        if not isinstance(ingest_fresh, dict):
            failures.append(
                f"ingest: fresh results {args.ingest_fresh} missing or "
                "unreadable")
        elif ingest_base is MISSING:
            print(f"ingest gate: SKIP — baseline "
                  f"{args.ingest_baseline} does not exist")
        elif not isinstance(ingest_base, dict):
            failures.append(
                f"ingest: baseline {args.ingest_baseline} exists but is "
                "unreadable — a corrupt baseline must not silently disable "
                "the gate")
        else:
            print("ingest gate (spilled bytes, any increase fails):")
            for name in INGEST_BYTE_SERIES:
                fresh_series = ingest_fresh.get(name)
                base_series = ingest_base.get(name)
                if not isinstance(fresh_series, dict) or \
                        not isinstance(base_series, dict):
                    print(f"  {name:<18} not in both files — skipped")
                    continue
                fresh_bytes = fresh_series.get("spilled_bytes")
                base_bytes = base_series.get("spilled_bytes")
                if not isinstance(fresh_bytes, int) or \
                        not isinstance(base_bytes, int):
                    print(f"  {name:<18} spilled_bytes missing — skipped")
                    continue
                verdict = "ok"
                if fresh_bytes > base_bytes:
                    verdict = "REGRESSION"
                    failures.append(
                        f"{name}: spilled bytes grew "
                        f"{fresh_bytes - base_bytes:+d} (fresh {fresh_bytes} "
                        f"vs baseline {base_bytes}) — the spill split is "
                        "deterministic, so this is an accounting or "
                        "threshold-fit change, not noise")
                print(f"  {name:<18} fresh {fresh_bytes:>12}  baseline "
                      f"{base_bytes:>12}  {verdict}")

            print(f"ingest refine-slowdown gate (within-run ratio, "
                  f"threshold {args.max_regression:.0%}):")
            fresh_slow = ingest_fresh.get("refine_slowdown")
            base_slow = ingest_base.get("refine_slowdown")
            if not isinstance(fresh_slow, (int, float)) or \
                    not isinstance(base_slow, (int, float)) or base_slow <= 0:
                print("  refine_slowdown missing in one file — skipped")
            else:
                ratio = fresh_slow / base_slow
                verdict = "ok"
                if ratio > 1.0 + args.max_regression:
                    verdict = "REGRESSION"
                    failures.append(
                        f"ingest: refinement slowdown regressed "
                        f"{ratio - 1.0:+.1%} (fresh {fresh_slow:.4f}x vs "
                        f"baseline {base_slow:.4f}x of the in-memory "
                        "iteration time)")
                print(f"  refine_slowdown    fresh {fresh_slow:7.4f}x  "
                      f"baseline {base_slow:7.4f}x  ratio {ratio:6.3f}  "
                      f"{verdict}")

    # --- serving gate: during-migration p99 inflation per scenario ---
    if args.serving_fresh is not None:
        serving_fresh = load(args.serving_fresh)
        serving_base = load(args.serving_baseline) \
            if args.serving_baseline is not None else MISSING
        if not isinstance(serving_fresh, dict):
            failures.append(
                f"serving: fresh results {args.serving_fresh} missing or "
                "unreadable")
        elif serving_base is MISSING:
            print(f"serving gate: SKIP — baseline "
                  f"{args.serving_baseline} does not exist")
        elif not isinstance(serving_base, dict):
            failures.append(
                f"serving: baseline {args.serving_baseline} exists but is "
                "unreadable — a corrupt baseline must not silently disable "
                "the gate")
        else:
            print(f"serving gate (during-migration p99 inflation, threshold "
                  f"{args.max_regression:.0%}):")
            for name in SERVING_SERIES:
                fresh_series = serving_fresh.get(name)
                base_series = serving_base.get(name)
                if not isinstance(fresh_series, dict) or \
                        not isinstance(base_series, dict):
                    print(f"  {name:<20} not in both files — skipped")
                    continue

                def inflation(series):
                    worst = series.get("p99_during_worst")
                    start = series.get("p99_start")
                    if not isinstance(worst, (int, float)) or \
                            not isinstance(start, (int, float)) or start <= 0:
                        return None
                    return worst / start

                fresh_ratio = inflation(fresh_series)
                base_ratio = inflation(base_series)
                if fresh_ratio is None or base_ratio is None or \
                        base_ratio <= 0:
                    print(f"  {name:<20} p99 fields missing — skipped")
                    continue
                ratio = fresh_ratio / base_ratio
                verdict = "ok"
                if ratio > 1.0 + args.max_regression:
                    verdict = "REGRESSION"
                    failures.append(
                        f"{name}: during-migration p99 inflation regressed "
                        f"{ratio - 1.0:+.1%} (fresh {fresh_ratio:.4f}x vs "
                        f"baseline {base_ratio:.4f}x of the starting p99)")
                print(f"  {name:<20} fresh {fresh_ratio:7.4f}x  baseline "
                      f"{base_ratio:7.4f}x  ratio {ratio:6.3f}  {verdict}")

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nPASS: no bench regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
