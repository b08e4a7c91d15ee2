"""Command-line interface to the reproduction.

Each subcommand runs one of the paper's experiments at a configurable
scale and prints the corresponding artifact:

.. code-block:: console

    $ repro-cli problems                 # P1-P5 demonstrations
    $ repro-cli fp-week --days 5         # E1, the false-positive week
    $ repro-cli longrun --days 10        # E2-E4 series + summary
    $ repro-cli longrun --days 10 --incident-day 8
    $ repro-cli table1 --days 14         # E5, daily vs weekly
    $ repro-cli table2                   # E7, the full attack matrix
    $ repro-cli attack Mirai --mode adaptive --mitigated
    $ repro-cli obs fleet --days 2 --nodes 4 --prom metrics.prom
    $ repro-cli obs fp-week --days 3 --jsonl telemetry.jsonl
    $ repro-cli obs watch --inject-p2 --once --jsonl run.jsonl
    $ repro-cli obs report run.jsonl

The console script ``repro-cli`` is installed with the package;
``python -m repro.cli`` works identically.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis import (
    render_fig3,
    render_fig4,
    render_fig5,
    render_fp_week,
    render_problem_demos,
    render_table1,
    render_table2,
)
from repro.distro.workload import ReleaseStreamConfig
from repro.experiments.testbed import TestbedConfig


def _small_stream() -> ReleaseStreamConfig:
    return ReleaseStreamConfig(
        mean_packages_per_day=6.0,
        sd_packages_per_day=6.0,
        mean_exec_files_per_package=10.0,
    )


def _config(args: argparse.Namespace, **overrides) -> TestbedConfig:
    config = TestbedConfig(
        seed=args.seed,
        n_filler_packages=args.fillers,
        mean_exec_files=8.0,
        stream=_small_stream(),
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def _cmd_fp_week(args: argparse.Namespace) -> int:
    from repro.experiments.fp_week import run_fp_week

    config = _config(args, policy_mode="static", continue_on_failure=True)
    result = run_fp_week(config=config, n_days=args.days)
    print(render_fp_week(result))
    return 0


def _cmd_longrun(args: argparse.Namespace) -> int:
    from repro.experiments.longrun import run_longrun

    official = {args.incident_day} if args.incident_day is not None else None
    result = run_longrun(
        config=_config(args), n_days=args.days,
        cadence_days=args.cadence, official_on_days=official,
    )
    print(render_fig3(result))
    print()
    print(render_fig4(result))
    print()
    print(render_fig5(result))
    print(f"\nfalse positives: {len(result.fp_incidents)} "
          f"({result.ok_polls}/{result.total_polls} polls green)")
    for incident in result.fp_incidents[:5]:
        print(f"  day {incident.day}: {incident.detail}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.longrun import run_longrun, table1_rows

    daily = run_longrun(config=_config(args), n_days=args.days, cadence_days=1)
    weekly = run_longrun(
        config=_config(args, seed=f"{args.seed}/weekly"),
        n_days=args.days, cadence_days=7,
    )
    print(render_table1(table1_rows(daily, weekly)))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.fn_matrix import run_attack_matrix

    stock = run_attack_matrix(mitigated=False, seed=args.seed)
    mitigated = run_attack_matrix(mitigated=True, seed=args.seed)
    print(render_table2(stock, mitigated))
    return 0


def _cmd_problems(args: argparse.Namespace) -> int:
    from repro.experiments.problems import run_all_demos

    print(render_problem_demos(run_all_demos()))
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.attacks import AttackMode, all_attacks
    from repro.experiments.fn_matrix import run_attack_trial

    samples = {sample.name.lower(): sample for sample in all_attacks()}
    sample = samples.get(args.name.lower())
    if sample is None:
        print(f"unknown attack {args.name!r}; choose from: "
              f"{', '.join(sorted(s.name for s in all_attacks()))}",
              file=sys.stderr)
        return 2
    trial = run_attack_trial(
        sample, AttackMode(args.mode), mitigated=args.mitigated,
        config=_config(args),
    )
    print(f"{trial.name} ({trial.mode.value}, {trial.ruleset}):")
    print(f"  detected live:         {trial.detected_live}")
    print(f"  detected after reboot: {trial.detected_after_reboot}")
    print(f"  alerting paths:        {list(trial.failing_paths) or '-'}")
    print(f"  problems exploited:    {list(trial.problems_used) or '-'}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import runtime as obs_runtime
    from repro.obs.exporters import (
        console_summary,
        jsonl_dump,
        prometheus_text,
        write_text_atomic,
    )

    with obs_runtime.session() as telemetry:
        if args.experiment == "fp-week":
            from repro.experiments.fp_week import run_fp_week

            config = _config(args, policy_mode="static", continue_on_failure=True)
            result = run_fp_week(config=config, n_days=args.days)
            print(f"fp-week: {result.total_polls} polls, "
                  f"{result.total_false_positives} distinct false positives")
        elif args.experiment == "longrun":
            from repro.experiments.longrun import run_longrun

            result = run_longrun(config=_config(args), n_days=args.days)
            print(f"longrun: {result.total_polls} polls, "
                  f"{len(result.fp_incidents)} false positives")
        else:  # fleet
            from repro.experiments.fleet_run import run_fleet_scenario

            result = run_fleet_scenario(
                seed=args.seed, n_nodes=args.nodes, n_days=args.days,
                n_filler_packages=args.fillers,
            )
            print(f"fleet: {len(result.fleet)} nodes, {result.total_polls} polls, "
                  f"{len(result.update_reports)} update cycles")

        print()
        print(console_summary(telemetry.registry, telemetry.tracer))
        if args.prom:
            write_text_atomic(args.prom, prometheus_text(telemetry.registry))
            print(f"\nPrometheus exposition written to {args.prom}")
        if args.jsonl:
            write_text_atomic(
                args.jsonl, jsonl_dump(telemetry.registry, telemetry.tracer)
            )
            print(f"JSONL telemetry written to {args.jsonl}")
    return 0


def _cmd_obs_watch(args: argparse.Namespace) -> int:
    from repro.obs import runtime as obs_runtime
    from repro.obs.exporters import jsonl_records, write_jsonl_atomic
    from repro.obs.health import HealthWatch, render_dashboard

    def frame(now: float, live_watch: HealthWatch) -> None:
        print(render_dashboard(live_watch, now))
        print()

    hub = None
    if args.tsdb:
        from repro.obs.federation import FederationHub

        hub = FederationHub(poll_interval=args.tick_minutes * 60.0)
    watch = HealthWatch(
        gap_polls=args.gap_polls,
        tick_interval=args.tick_minutes * 60.0,
        on_frame=None if args.once else frame,
        frame_every=0 if args.once else args.frame_every,
        hub=hub,
    )
    with obs_runtime.session() as telemetry:
        chaos = None
        if args.scenario == "fleet":
            from repro.experiments.fleet_run import (
                ChaosInjection,
                P2Injection,
                run_fleet_scenario,
            )

            if args.chaos_profile is not None:
                chaos = ChaosInjection(
                    profile=args.chaos_profile, chaos_seed=args.chaos_seed
                )
            result = run_fleet_scenario(
                seed=args.seed, n_nodes=args.nodes, n_days=args.days,
                n_filler_packages=args.fillers,
                p2=P2Injection() if args.inject_p2 else None,
                watch=watch,
                chaos=chaos,
                push_mode=args.push,
            )
            mode = "push" if args.push else "pull"
            print(f"fleet ({mode}): {len(result.fleet)} nodes, "
                  f"{result.total_polls} rounds; status: {result.status}")
            if result.fault_plan is not None:
                counts = result.fault_plan.counts_by_kind()
                injected = ", ".join(
                    f"{kind}={count}" for kind, count in sorted(counts.items())
                ) or "none fired"
                print(f"chaos: profile={result.chaos.profile} "
                      f"seed={result.chaos.chaos_seed} injected: {injected}")
        else:  # longrun
            from repro.experiments.longrun import run_longrun

            result = run_longrun(
                config=_config(args), n_days=args.days,
                p2_on_day=args.p2_day if args.inject_p2 else None,
                watch=watch,
            )
            print(f"longrun: {result.total_polls} polls, "
                  f"{len(result.fp_incidents)} false positives")

        now = watch.monitor.last_check or 0.0
        print()
        print(render_dashboard(watch, now))
        if watch.engine.history:
            print("\n-- alerts fired over the run --")
            for alert in watch.engine.history:
                who = f" agent={alert.agent}" if alert.agent else ""
                print(f"  t={alert.time / 3600.0:8.2f}h [{alert.severity.upper():8s}] "
                      f"{alert.rule}{who}: {alert.message}")
        for incident in watch.incidents:
            print()
            # Agent-scoped incidents are the forensic deep dives; keep
            # fleet-wide SLO burns to their header block on the console.
            print(incident.render_text(include_timeline=incident.agent_id is not None))

        if args.jsonl:
            run_meta = {
                "type": "run_meta",
                "scenario": args.scenario,
                "push_mode": bool(args.push and args.scenario == "fleet"),
                "seed": str(args.seed),
                "days": args.days,
                "poll_interval": watch.poll_interval,
                "gap_polls": watch.gap_polls,
                "agents": watch.monitor.gaps.agents(),
                "end_time": now,
            }
            if chaos is not None:
                run_meta["chaos_profile"] = chaos.profile
                run_meta["chaos_seed"] = str(chaos.chaos_seed)
            extra = [run_meta]
            extra += [alert.to_record() for alert in watch.engine.history]
            extra += [incident.to_record() for incident in watch.incidents]
            if hub is not None:
                extra += list(hub.store.export_records())
            # Stream record-by-record: a long TSDB-backed run exports in
            # O(1) memory while keeping the atomic-replace guarantee.
            lines = write_jsonl_atomic(
                args.jsonl,
                jsonl_records(
                    telemetry.registry, telemetry.tracer,
                    events=watch.monitor.events,
                    audit=watch.correlator.audit,
                    extra_records=extra,
                ),
            )
            print(f"\nJSONL run export written to {args.jsonl} "
                  f"({lines} records)")
    return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.obs.dashboard import render_top, top_frame_record
    from repro.obs.exporters import write_jsonl_atomic
    from repro.obs.tsdb import TsdbStore

    poll_interval = args.tick_minutes * 60.0

    if args.replay:
        from repro.obs.exporters import load_jsonl

        with open(args.replay, "r", encoding="utf-8") as handle:
            records = load_jsonl(handle.read())
        store = TsdbStore.from_records(records)
        if not len(store):
            print(f"no TSDB series in {args.replay}")
            return 1
        span = store.time_span()
        now = span[1] if span else 0.0
        frames = [r for r in records if r.get("type") == "top_frame"]
        staleness = frames[-1].get("sources") if frames else None
        print(render_top(
            store, now, staleness=staleness, poll_interval=poll_interval
        ))
        return 0

    from repro.experiments.shardfleet import run_shard_fleet

    frames: list[dict] = []

    def on_round(round_index: int, result) -> None:
        if args.frame_every <= 0 or (round_index + 1) % args.frame_every:
            return
        hub, now = result.hub, result.fleet.scheduler.clock.now
        staleness = hub.staleness(now)
        frames.append(top_frame_record(hub.store, now, staleness, poll_interval))
        if not args.once:
            print(render_top(
                hub.store, now, staleness, poll_interval=poll_interval
            ))
            print()

    result = run_shard_fleet(
        seed=str(args.seed),
        n_nodes=args.nodes,
        n_verifiers=args.verifiers,
        fillers=args.fillers,
        rounds=args.rounds,
        poll_interval=poll_interval,
        push_mode=args.push,
        kill={} if args.kill is None else {args.kill_round: args.kill},
        on_round=on_round,
    )
    hub = result.hub
    end = result.end_time
    staleness = hub.staleness(end)
    print(render_top(hub.store, end, staleness, poll_interval=poll_interval))
    for round_index, shard_ids in sorted(result.failovers.items()):
        print(f"  round {round_index}: failover "
              f"{', '.join(shard_ids)} -> "
              f"{', '.join(result.fleet.shards[s].host for s in shard_ids)}")
    gaps = result.gap_alerts()
    print(f"  coverage-gap alerts: {len(gaps)} "
          f"({'FAILOVER LEFT A BLIND SPOT' if gaps else 'no blind spots'})")
    states = result.fleet.status()
    attesting = sum(1 for state in states.values() if state == "attesting")
    print(f"  nodes attesting: {attesting}/{len(states)}")

    final = top_frame_record(hub.store, end, staleness, poll_interval)
    if args.jsonl:
        def records():
            yield {
                "type": "run_meta",
                "scenario": "observatory",
                "push_mode": args.push,
                "seed": str(args.seed),
                "verifiers": args.verifiers,
                "rounds": args.rounds,
                "poll_interval": poll_interval,
                "agents": result.watch.monitor.gaps.agents(),
                "end_time": end,
            }
            yield from hub.store.export_records()
            yield from frames
            yield final

        lines = write_jsonl_atomic(args.jsonl, records())
        print(f"\nTSDB export written to {args.jsonl} ({lines} records)")
    if args.json_summary:
        print(json_module.dumps(final, sort_keys=True))
    return 1 if gaps else 0


def _cmd_obs_capacity(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.obs.capacity import plan_capacity, render_capacity_plan

    if args.replay:
        from repro.obs.capacity import model_from_store
        from repro.obs.exporters import load_jsonl
        from repro.obs.tsdb import TsdbStore

        with open(args.replay, "r", encoding="utf-8") as handle:
            records = load_jsonl(handle.read())
        store = TsdbStore.from_records(records)
        model = model_from_store(store)
        if model is None or model.samples == 0:
            print(f"no fleet tick accounting series in {args.replay} "
                  "(need fleet_ticks_total / fleet_polled_agents_total / "
                  "fleet_tick_busy_seconds_total)")
            return 1
        interval = args.interval if args.interval is not None else 1800.0
    else:
        from repro.experiments.saturation import (
            render_sweep,
            run_saturation_sweep,
        )

        sizes = tuple(
            int(part) for part in args.sizes.split(",") if part.strip()
        )
        sweep = run_saturation_sweep(
            sizes=sizes,
            ticks=args.ticks,
            budget=args.budget,
            seed=str(args.seed),
            n_filler_packages=args.fillers,
        )
        print(render_sweep(sweep))
        print()
        model = sweep.model
        interval = args.interval if args.interval is not None else sweep.budget

    plan = plan_capacity(
        model,
        interval,
        verifiers=args.verifiers,
        current_nodes=args.current_nodes,
        growth_per_day=args.growth_per_day,
        target_nodes=args.target_nodes,
    )
    print(render_capacity_plan(plan))
    if args.json_summary:
        print(json_module.dumps(plan.to_record(), sort_keys=True))
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.exporters import load_jsonl
    from repro.obs.incidents import reports_from_export, split_export

    with open(args.export_file, "r", encoding="utf-8") as handle:
        records = load_jsonl(handle.read())
    groups = split_export(records)
    meta = (groups.get("run_meta") or [{}])[0]
    if meta:
        fields = [
            f"{key}={meta[key]}" for key in ("scenario", "seed", "days")
            if key in meta
        ]
        if "agents" in meta:
            fields.append(f"agents={len(meta['agents'])}")
        print("run: " + " ".join(fields))
    print("records: " + ", ".join(
        f"{kind}={len(items)}" for kind, items in sorted(groups.items())
    ))
    if groups.get("tsdb_series"):
        from repro.obs.tsdb import TsdbStore

        store = TsdbStore.from_records(records)
        stats = store.stats()
        span = store.time_span()
        window = (span[1] - span[0]) / 3600.0 if span else 0.0
        print(f"tsdb: {stats['series']} series, {stats['samples']} samples "
              f"over {window:.1f}h, {stats['scrapes']} scrapes, "
              f"{stats['counter_resets']} counter resets")
    for alert in groups.get("alert", ()):
        who = f" agent={alert['agent']}" if alert.get("agent") else ""
        print(f"  alert t={alert['time'] / 3600.0:8.2f}h "
              f"[{alert['severity'].upper():8s}] {alert['rule']}{who}")
    reports = reports_from_export(records)
    if not reports:
        print("no incidents in export (and none reconstructible from events)")
        return 0
    source = "embedded" if groups.get("incident") else "replayed from events"
    print(f"\n{len(reports)} incident report(s) ({source}):")
    for report in reports:
        print()
        print(report.render_text())
    return 0


def _load_span_store(path: str):
    from repro.obs.exporters import load_jsonl
    from repro.obs.tracestore import SpanStore

    with open(path, "r", encoding="utf-8") as handle:
        records = load_jsonl(handle.read())
    return SpanStore.from_records(records)


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    import json as json_module
    import os as os_module

    from repro.obs import profiling
    from repro.obs.exporters import write_text_atomic
    from repro.obs.tracestore import perfetto_trace

    if args.trace_command == "diff":
        store_a = _load_span_store(args.export_file)
        store_b = _load_span_store(args.export_file_b)
        profile_a = profiling.profile(
            root for entry in store_a.entries() for root in entry.roots
        )
        profile_b = profiling.profile(
            root for entry in store_b.entries() for root in entry.roots
        )
        print(profiling.render_diff(
            profiling.diff_profiles(profile_a, profile_b),
            a_label=os_module.path.basename(args.export_file),
            b_label=os_module.path.basename(args.export_file_b),
        ))
        return 0

    store = _load_span_store(args.export_file)
    if not len(store):
        print("no spans in export")
        return 1

    if args.trace_command == "show":
        if args.trace is not None:
            entry = store.get(args.trace)
            if entry is None:
                print(f"no trace {args.trace!r} in export")
                return 1
        else:
            entry = store.entries()[-1]
        stats = store.stats()
        print(f"store: {stats['traces']} traces, {stats['spans']} spans "
              f"(names: {', '.join(store.names())})")
        print(f"trace {entry.trace_id:032x}  agent={entry.agent or '-'} "
              f"sim_start={entry.sim_start / 3600.0:.2f}h "
              f"wall={entry.wall_duration * 1000:.3f}ms "
              f"error={entry.error}")
        for root in entry.roots:
            for line in root.tree_lines():
                print("  " + line)
        return 0

    if args.trace_command == "query":
        matched = store.query(
            name=args.name,
            agent=args.agent,
            errors_only=args.errors_only,
            since=args.since_hours * 3600.0 if args.since_hours is not None else None,
            until=args.until_hours * 3600.0 if args.until_hours is not None else None,
            min_wall=(
                args.min_wall_ms / 1000.0 if args.min_wall_ms is not None else None
            ),
            limit=args.limit,
        )
        print(f"{len(matched)} matching trace(s):")
        for entry in matched:
            print(f"  {entry.trace_id:032x}  {entry.name:<18s} "
                  f"agent={entry.agent or '-':<16s} "
                  f"t={entry.sim_start / 3600.0:8.2f}h "
                  f"wall={entry.wall_duration * 1000:9.3f}ms "
                  f"spans={entry.span_count:<4d} "
                  f"{'ERROR' if entry.error else 'ok'}")
        return 0

    if args.trace_command == "critical-path":
        if args.trace is not None:
            entry = store.get(args.trace)
            if entry is None:
                print(f"no trace {args.trace!r} in export")
                return 1
            root = entry.heaviest(args.name) or entry.primary
        else:
            slowest = store.slowest(1, name=args.name)
            if slowest:
                root = slowest[0].heaviest(args.name) or slowest[0].primary
            else:
                root = store.slowest(1)[0].primary
        print(profiling.render_critical_path(root))
        return 0

    # export
    if args.format == "perfetto":
        text = json_module.dumps(
            perfetto_trace(store.entries()), sort_keys=True, indent=1
        ) + "\n"
    elif args.format == "collapsed":
        roots = [root for entry in store.entries() for root in entry.roots]
        text = profiling.collapsed_text(roots) + "\n"
    else:  # jsonl
        text = store.dump_jsonl()
    if args.out:
        write_text_atomic(args.out, text)
        stats = store.stats()
        print(f"{args.format} export of {stats['traces']} traces "
              f"({stats['spans']} spans) written to {args.out}")
    else:
        print(text, end="")
    return 0


def _default_bench_dir() -> str:
    """The repo's ``benchmarks/`` directory, wherever the CLI runs from.

    Resolved relative to this source file first (the ``PYTHONPATH=src``
    layout), falling back to the working directory for installed
    checkouts driven from the repo root.
    """
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    for candidate in (
        os.path.join(os.path.dirname(os.path.dirname(here)), "benchmarks"),
        os.path.join(os.getcwd(), "benchmarks"),
    ):
        if os.path.isdir(candidate):
            return candidate
    return "benchmarks"


def _load_harness(bench_dir: str | None):
    """Import ``benchmarks/harness.py`` by path (it is not a package)."""
    import importlib.util
    import os

    directory = bench_dir or _default_bench_dir()
    path = os.path.join(directory, "harness.py")
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"bench harness not found at {path}; pass --bench-dir"
        )
    name = "repro_bench_harness"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _cmd_bench_run(args: argparse.Namespace) -> int:
    harness = _load_harness(args.bench_dir)

    names = None if args.all or not args.benches else args.benches
    mode = "smoke" if args.smoke else "full"
    records = harness.run_benches(
        names=names,
        mode=mode,
        trajectory_path=args.trajectory,
        bench_dir=args.bench_dir,
        seed=args.seed_override,
        profile=args.profile,
        log=print,
    )
    if not records:
        print("no benches ran")
        return 1
    print(f"{len(records)} record(s) appended to {args.trajectory}")
    return 0


def _cmd_bench_list(args: argparse.Namespace) -> int:
    import json as json_module

    harness = _load_harness(args.bench_dir)
    specs = harness.discover(args.bench_dir)
    if args.json:
        print(json_module.dumps(
            [spec.to_record() for spec in specs], sort_keys=True
        ))
        return 0
    print(f"{len(specs)} registered bench(es)")
    for spec in specs:
        metrics = ", ".join(
            f"{metric.name} [{metric.unit}, {metric.better} is better]"
            for metric in spec.metrics
        )
        print(f"  {spec.name:<14s} modes={'/'.join(spec.modes)} "
              f"seed={spec.seed}")
        print(f"    {spec.description}")
        print(f"    metrics: {metrics}")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    import json as json_module
    import os

    from repro.obs.exporters import write_jsonl_atomic
    from repro.obs.perf import compare_trajectory, load_trajectory
    from repro.obs.profiling import diff_folds, load_folds, render_fold_diff

    records = load_trajectory(args.trajectory)
    if not records:
        print(f"no bench records in {args.trajectory}")
        return 1
    result = compare_trajectory(
        records,
        baseline_runs=args.baseline,
        mode=args.mode,
        benches=args.benches or None,
        z_threshold=args.threshold,
    )
    summary = result.to_record()

    if args.out:
        lines = write_jsonl_atomic(
            args.out,
            [v.to_record() for v in result.verdicts] + [summary],
        )
        print(f"verdicts written to {args.out} ({lines} records)")
    if args.json:
        print(json_module.dumps(summary, sort_keys=True))
    else:
        counts = result.counts
        print(f"bench compare: {len(result.verdicts)} metric(s) vs "
              f"median of last {result.baseline_runs} same-mode run(s)")
        marker = {"ok": " ", "improved": "+", "regressed": "!", "noisy": "?"}
        for verdict in sorted(
            result.verdicts,
            key=lambda v: (v.status != "regressed", v.bench, v.metric),
        ):
            delta = verdict.delta_ratio
            delta_s = f"{delta:+.1%}" if delta is not None else "   --"
            base = (
                f"{verdict.baseline_median:.4g}"
                if verdict.baseline_median is not None else "--"
            )
            line = (
                f"  {marker[verdict.status]} {verdict.status:<9s} "
                f"{verdict.bench}/{verdict.metric} [{verdict.mode}] "
                f"{verdict.value:.4g}{verdict.unit} vs {base} ({delta_s})"
            )
            if verdict.reason:
                line += f" -- {verdict.reason}"
            if not verdict.baseline_seeds_match:
                line += " [baseline seeds differ]"
            print(line)
        print("  summary: " + " ".join(
            f"{status}={counts[status]}"
            for status in ("ok", "improved", "regressed", "noisy")
        ))
        # A regression with profiles on both sides gets its flamegraph
        # fold diff printed inline -- the verdict links to where the
        # time went, not just that it went somewhere.
        for verdict in result.regressed:
            if not verdict.profile or not verdict.baseline_profile:
                continue
            if not (os.path.exists(verdict.profile)
                    and os.path.exists(verdict.baseline_profile)):
                continue
            with open(verdict.baseline_profile, encoding="utf-8") as handle:
                baseline_folds = load_folds(handle.read())
            with open(verdict.profile, encoding="utf-8") as handle:
                candidate_folds = load_folds(handle.read())
            print(render_fold_diff(
                diff_folds(baseline_folds, candidate_folds),
                a_label=os.path.basename(verdict.baseline_profile),
                b_label=os.path.basename(verdict.profile),
            ))
            break  # one diff is orientation enough; the folds stay on disk

    if args.fail_on_regression and result.counts["regressed"] > 0:
        print(f"FAIL: {result.counts['regressed']} regressed metric(s)")
        return 1
    return 0


def _cmd_bench_history(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import sparkline
    from repro.obs.perf import load_trajectory

    records = load_trajectory(args.trajectory)
    if not records:
        print(f"no bench records in {args.trajectory}")
        return 1
    wanted = set(args.benches) if args.benches else None
    groups: dict[tuple[str, str, str], list] = {}
    for record in records:
        if wanted is not None and record.bench not in wanted:
            continue
        if args.mode is not None and record.mode != args.mode:
            continue
        for metric, value in sorted(record.metrics.items()):
            if args.metric is not None and metric != args.metric:
                continue
            key = (record.bench, record.mode, metric)
            groups.setdefault(key, []).append(
                (value, record.units.get(metric, ""))
            )
    if not groups:
        print("no matching metrics in the trajectory")
        return 1
    print(f"perf trajectory: {args.trajectory} "
          f"({len(records)} run record(s))")
    last_bench = None
    for (bench, mode, metric), points in sorted(groups.items()):
        if bench != last_bench:
            print(f"  {bench}:")
            last_bench = bench
        values = [value for value, _ in points]
        unit = points[-1][1]
        print(f"    {metric:<26s} [{mode:<5s}] "
              f"{sparkline(values, args.width)} "
              f"{values[-1]:10.4g}{unit} ({len(values)} runs)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Reproduction of the DSN 2025 Keylime case study.",
    )
    parser.add_argument("--seed", default="cli", help="experiment seed")
    parser.add_argument(
        "--fillers", type=int, default=40,
        help="base-system filler packages (scale knob)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fp_week = commands.add_parser("fp-week", help="E1: the false-positive week")
    fp_week.add_argument("--days", type=int, default=7)
    fp_week.set_defaults(func=_cmd_fp_week)

    longrun = commands.add_parser(
        "longrun", help="E2-E4: dynamic-policy long run (Figs 3-5)"
    )
    longrun.add_argument("--days", type=int, default=10)
    longrun.add_argument("--cadence", type=int, default=1)
    longrun.add_argument(
        "--incident-day", type=int, default=None,
        help="inject the official-archive operator error on this day",
    )
    longrun.set_defaults(func=_cmd_longrun)

    table1 = commands.add_parser("table1", help="E5: daily vs weekly summary")
    table1.add_argument("--days", type=int, default=14)
    table1.set_defaults(func=_cmd_table1)

    table2 = commands.add_parser("table2", help="E7: the 8-attack matrix")
    table2.set_defaults(func=_cmd_table2)

    problems = commands.add_parser("problems", help="E8: P1-P5 demonstrations")
    problems.set_defaults(func=_cmd_problems)

    attack = commands.add_parser("attack", help="run one attack trial")
    attack.add_argument("name", help="sample name, e.g. Mirai")
    attack.add_argument("--mode", choices=["basic", "adaptive"], default="basic")
    attack.add_argument("--mitigated", action="store_true")
    attack.set_defaults(func=_cmd_attack)

    obs = commands.add_parser(
        "obs", help="telemetry: instrumented runs, health watch, incident reports"
    )
    obs_commands = obs.add_subparsers(dest="experiment", required=True)
    for experiment in ("fp-week", "longrun", "fleet"):
        exporter = obs_commands.add_parser(
            experiment, help=f"run {experiment} under telemetry and export it"
        )
        exporter.add_argument("--days", type=int, default=2)
        exporter.add_argument(
            "--nodes", type=int, default=3, help="fleet size (fleet only)"
        )
        exporter.add_argument("--prom", default=None, help="write Prometheus text here")
        exporter.add_argument(
            "--jsonl", default=None, help="write JSONL metrics+spans here"
        )
        exporter.set_defaults(func=_cmd_obs)

    watch = obs_commands.add_parser(
        "watch",
        help="run a scenario under the health monitor: live dashboard, "
             "SLO burn alerts, incident reports",
    )
    watch.add_argument(
        "--scenario", choices=["fleet", "longrun"], default="fleet",
        help="which scenario to watch",
    )
    watch.add_argument("--days", type=int, default=2)
    watch.add_argument("--nodes", type=int, default=3, help="fleet size (fleet only)")
    watch.add_argument(
        "--inject-p2", action="store_true",
        help="inject the adaptive self-induced-FP attack (the paper's P2)",
    )
    watch.add_argument(
        "--p2-day", type=int, default=1,
        help="day the P2 decoy lands (longrun scenario only)",
    )
    watch.add_argument(
        "--push", action="store_true",
        help="push-mode attestation: agents drive their own "
             "negotiate/submit/verdict exchanges on their own timers and "
             "the verifier tick only reaps expired sessions (fleet "
             "scenario only; verdict-equivalent to pull on the same seed)",
    )
    watch.add_argument(
        "--chaos-profile", default=None,
        help="inject seeded transport faults: a repro.keylime.faults "
             "profile name (drops, flaky, partition, transient-mixed, "
             "corruption, replay, mixed; fleet scenario only)",
    )
    watch.add_argument(
        "--chaos-seed", default="chaos",
        help="seed for the fault plan RNG (independent of --seed)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="no live frames; print one final snapshot (CI mode)",
    )
    watch.add_argument(
        "--gap-polls", type=float, default=3.0,
        help="missed poll intervals before a coverage gap fires",
    )
    watch.add_argument(
        "--tick-minutes", type=float, default=30.0,
        help="monitor tick interval, simulated minutes",
    )
    watch.add_argument(
        "--frame-every", type=int, default=24,
        help="print a live dashboard frame every N ticks",
    )
    watch.add_argument("--jsonl", default=None, help="write the full run export here")
    watch.add_argument(
        "--tsdb", action="store_true",
        help="also ingest the registry into a one-source federation hub "
             "(snapshot + recording rules) every tick and add its TSDB to "
             "the --jsonl export for `obs top --replay`; detectors always "
             "read the registry",
    )
    watch.set_defaults(func=_cmd_obs_watch)

    top = obs_commands.add_parser(
        "top",
        help="federated mission control: a fleet sharded across N "
             "verifiers merged into one TSDB; fleet rollups, shard "
             "layout, freshness heatmap, SLO burn, optional failover",
    )
    top.add_argument("--verifiers", type=int, default=3)
    top.add_argument(
        "--nodes", type=int, default=9, help="fleet size, across all verifiers"
    )
    top.add_argument("--rounds", type=int, default=5)
    top.add_argument(
        "--kill", default=None, metavar="MEMBER",
        help="mark MEMBER dead at --kill-round's boundary",
    )
    top.add_argument(
        "--kill-round", type=int, default=2,
        help="round index at which --kill takes effect",
    )
    top.add_argument(
        "--push", action="store_true",
        help="drive the rounds through the push exchange",
    )
    top.add_argument(
        "--tick-minutes", type=float, default=30.0,
        help="simulated minutes between attestation rounds",
    )
    top.add_argument(
        "--frame-every", type=int, default=24,
        help="render a dashboard frame every N rounds",
    )
    top.add_argument(
        "--once", action="store_true",
        help="no live frames; print one final frame (CI mode)",
    )
    top.add_argument(
        "--jsonl", default=None,
        help="write run_meta + full TSDB export + captured frames here",
    )
    top.add_argument(
        "--json-summary", action="store_true",
        help="also print the final frame as one JSON line (CI assertions)",
    )
    top.add_argument(
        "--replay", default=None, metavar="EXPORT",
        help="post-hoc: render the dashboard from a --jsonl export "
             "instead of running a fleet",
    )
    top.set_defaults(func=_cmd_obs_top)

    capacity = obs_commands.add_parser(
        "capacity",
        help="what-if capacity planner: fit per-node round cost from a "
             "live saturation sweep (or a TSDB export) and answer "
             "max-nodes / throughput / time-to-saturation questions",
    )
    capacity.add_argument(
        "--replay", default=None, metavar="EXPORT",
        help="fit the model from an obs top/watch --jsonl TSDB export "
             "instead of running a live sweep",
    )
    capacity.add_argument(
        "--sizes", default="4,8,16,28",
        help="live sweep fleet sizes, comma-separated",
    )
    capacity.add_argument(
        "--ticks", type=int, default=6,
        help="measured batch ticks per sweep size",
    )
    capacity.add_argument(
        "--budget", type=float, default=None,
        help="tick budget, wall seconds (default: calibrated so the "
             "knee lands at the sweep midpoint)",
    )
    capacity.add_argument(
        "--interval", type=float, default=None,
        help="what-if per-tick budget for the plan, seconds (default: "
             "the sweep budget live, 1800 on --replay)",
    )
    capacity.add_argument(
        "--verifiers", type=int, default=1,
        help="what-if verifier count",
    )
    capacity.add_argument(
        "--current-nodes", type=float, default=0.0,
        help="current fleet size for utilization / time-to-saturation",
    )
    capacity.add_argument(
        "--growth-per-day", type=float, default=0.0,
        help="fleet growth rate for time-to-saturation",
    )
    capacity.add_argument(
        "--target-nodes", type=float, default=None,
        help="target fleet size: how many verifiers would it need?",
    )
    capacity.add_argument(
        "--json-summary", action="store_true",
        help="also print the plan as one JSON line (CI assertions)",
    )
    capacity.set_defaults(func=_cmd_obs_capacity)

    obs_report = obs_commands.add_parser(
        "report", help="post-hoc incident reports from an obs watch JSONL export"
    )
    obs_report.add_argument("export_file", help="path to an obs watch --jsonl export")
    obs_report.set_defaults(func=_cmd_obs_report)

    trace = obs_commands.add_parser(
        "trace",
        help="inspect traces from a JSONL export: show, query, Perfetto "
             "export, critical path, run diff",
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    trace_show = trace_commands.add_parser("show", help="print one trace tree")
    trace_show.add_argument("export_file", help="path to a --jsonl export")
    trace_show.add_argument(
        "--trace", default=None, help="trace id (decimal or hex); default: last"
    )
    trace_show.set_defaults(func=_cmd_obs_trace)

    trace_query = trace_commands.add_parser(
        "query", help="filter traces by name/agent/error/time/duration"
    )
    trace_query.add_argument("export_file", help="path to a --jsonl export")
    trace_query.add_argument("--name", default=None, help="primary span name")
    trace_query.add_argument("--agent", default=None, help="agent id")
    trace_query.add_argument(
        "--errors-only", action="store_true", help="error-status traces only"
    )
    trace_query.add_argument(
        "--since-hours", type=float, default=None, help="simulated window start"
    )
    trace_query.add_argument(
        "--until-hours", type=float, default=None, help="simulated window end"
    )
    trace_query.add_argument(
        "--min-wall-ms", type=float, default=None, help="wall-duration floor"
    )
    trace_query.add_argument("--limit", type=int, default=20)
    trace_query.set_defaults(func=_cmd_obs_trace)

    trace_export = trace_commands.add_parser(
        "export", help="re-export traces (Perfetto JSON, span JSONL, flamegraph folds)"
    )
    trace_export.add_argument("export_file", help="path to a --jsonl export")
    trace_export.add_argument(
        "--format", choices=["perfetto", "jsonl", "collapsed"], default="perfetto",
    )
    trace_export.add_argument(
        "--out", default=None, help="output path (default: stdout)"
    )
    trace_export.set_defaults(func=_cmd_obs_trace)

    trace_cp = trace_commands.add_parser(
        "critical-path", help="where the wall time of one trace went"
    )
    trace_cp.add_argument("export_file", help="path to a --jsonl export")
    trace_cp.add_argument(
        "--trace", default=None, help="trace id (decimal or hex); default: slowest"
    )
    trace_cp.add_argument(
        "--name", default="verifier.poll",
        help="root name to pick the slowest trace from",
    )
    trace_cp.set_defaults(func=_cmd_obs_trace)

    trace_diff = trace_commands.add_parser(
        "diff", help="self-time profile delta between two run exports"
    )
    trace_diff.add_argument("export_file", help="baseline --jsonl export")
    trace_diff.add_argument("export_file_b", help="comparison --jsonl export")
    trace_diff.set_defaults(func=_cmd_obs_trace)

    report = commands.add_parser(
        "report", help="run every experiment and emit a markdown report"
    )
    report.add_argument("--out", default=None, help="write to this file")
    report.add_argument("--days", type=int, default=10)
    report.set_defaults(func=_cmd_report)

    lint = commands.add_parser(
        "lint", help="lint a runtime-policy JSON file's exclude rules"
    )
    lint.add_argument("policy_file", help="path to a policy JSON")
    lint.set_defaults(func=_cmd_lint)

    diff = commands.add_parser(
        "diff", help="diff two runtime-policy JSON files"
    )
    diff.add_argument("old_file")
    diff.add_argument("new_file")
    diff.set_defaults(func=_cmd_diff)

    stats = commands.add_parser(
        "stats", help="coverage statistics for a runtime-policy JSON file"
    )
    stats.add_argument("policy_file")
    stats.set_defaults(func=_cmd_stats)

    state = commands.add_parser(
        "state",
        help="durable verifier state: snapshot a seeded fleet run, "
             "inspect a snapshot, restore and resume from one",
    )
    state_commands = state.add_subparsers(dest="state_command", required=True)

    state_save = state_commands.add_parser(
        "save", help="run a seeded fleet and snapshot the verifier state"
    )
    state_save.add_argument("snapshot_file", help="where to write the snapshot")
    state_save.add_argument("--nodes", type=int, default=3)
    state_save.add_argument(
        "--rounds", type=int, default=4,
        help="attestation rounds per agent before the snapshot",
    )
    state_save.add_argument(
        "--interval", type=float, default=1800.0,
        help="simulated seconds between rounds",
    )
    state_save.add_argument(
        "--push", action="store_true",
        help="drive the rounds through the push exchange",
    )
    state_save.set_defaults(func=_cmd_state_save)

    state_inspect = state_commands.add_parser(
        "inspect", help="print a snapshot's header and per-agent summary"
    )
    state_inspect.add_argument("snapshot_file")
    state_inspect.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    state_inspect.set_defaults(func=_cmd_state_inspect)

    state_load = state_commands.add_parser(
        "load",
        help="rebuild the rig from the snapshot's meta, restore the "
             "verifier, optionally resume more rounds",
    )
    state_load.add_argument("snapshot_file")
    state_load.add_argument(
        "--resume", type=int, default=0,
        help="attestation rounds to run after the restore",
    )
    state_load.set_defaults(func=_cmd_state_load)

    shard = commands.add_parser(
        "shard",
        help="multi-verifier fleet: consistent-hash assignment",
    )
    shard_commands = shard.add_subparsers(dest="shard_command", required=True)

    shard_assign = shard_commands.add_parser(
        "assign",
        help="print the ring's agent->verifier assignment and balance",
    )
    shard_assign.add_argument("--verifiers", type=int, default=3)
    shard_assign.add_argument("--nodes", type=int, default=30)
    shard_assign.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual nodes per ring member",
    )
    shard_assign.add_argument(
        "--show-agents", action="store_true",
        help="print every agent's shard, not just the sizes",
    )
    shard_assign.add_argument(
        "--join", default=None, metavar="MEMBER",
        help="also print the migration plan for adding MEMBER",
    )
    shard_assign.add_argument(
        "--leave", default=None, metavar="MEMBER",
        help="also print the migration plan for retiring MEMBER",
    )
    shard_assign.set_defaults(func=_cmd_shard_assign)

    bench = commands.add_parser(
        "bench",
        help="perf observatory: run registered benches, record the "
             "trajectory, detect regressions",
    )
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_commands.add_parser(
        "run", help="run registered benches and append to the trajectory"
    )
    bench_run.add_argument(
        "benches", nargs="*", metavar="BENCH",
        help="bench names (default: all registered)",
    )
    bench_run.add_argument(
        "--all", action="store_true", help="run every registered bench"
    )
    mode_group = bench_run.add_mutually_exclusive_group()
    mode_group.add_argument(
        "--smoke", action="store_true",
        help="CI shape: small workloads, seconds per bench",
    )
    mode_group.add_argument(
        "--full", action="store_true",
        help="measurement shape (the default)",
    )
    bench_run.add_argument(
        "--trajectory", default="perf/trajectory.jsonl",
        help="durable trajectory JSONL (default perf/trajectory.jsonl)",
    )
    bench_run.add_argument(
        "--bench-dir", default=None,
        help="directory holding bench_*.py (default: the repo's benchmarks/)",
    )
    bench_run.add_argument(
        "--profile", action="store_true",
        help="sample each bench's hot section into collapsed flamegraph "
             "folds next to the trajectory",
    )
    bench_run.add_argument(
        "--bench-seed", dest="seed_override", default=None,
        help="override every bench's registered seed",
    )
    bench_run.set_defaults(func=_cmd_bench_run)

    bench_list = bench_commands.add_parser(
        "list", help="enumerate registered benches, metrics, and modes"
    )
    bench_list.add_argument(
        "--json", action="store_true", help="machine-readable spec list"
    )
    bench_list.add_argument("--bench-dir", default=None)
    bench_list.set_defaults(func=_cmd_bench_list)

    bench_compare = bench_commands.add_parser(
        "compare",
        help="score the newest run of each bench against its baseline "
             "(median of last N same-mode runs, MAD noise floor)",
    )
    bench_compare.add_argument(
        "--trajectory", default="perf/trajectory.jsonl",
    )
    bench_compare.add_argument(
        "--mode", choices=["smoke", "full"], default=None,
        help="restrict to one mode (default: every (bench, mode) group)",
    )
    bench_compare.add_argument(
        "--baseline", type=int, default=5,
        help="baseline window: last N same-mode runs (default 5)",
    )
    bench_compare.add_argument(
        "--threshold", type=float, default=2.5,
        help="deviation threshold in noise-floor units (default 2.5)",
    )
    bench_compare.add_argument(
        "--benches", nargs="*", metavar="BENCH", default=None,
        help="restrict to these benches",
    )
    bench_compare.add_argument(
        "--json", action="store_true",
        help="print the machine-readable summary record",
    )
    bench_compare.add_argument(
        "--out", default=None,
        help="write verdict + summary records to this JSONL file",
    )
    bench_compare.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit nonzero when any metric classifies regressed "
             "(the full-mode CI gate; smoke stays warn-only)",
    )
    bench_compare.set_defaults(func=_cmd_bench_compare)

    bench_history = bench_commands.add_parser(
        "history", help="sparkline each metric across recorded runs"
    )
    bench_history.add_argument(
        "benches", nargs="*", metavar="BENCH",
        help="bench names (default: all recorded)",
    )
    bench_history.add_argument(
        "--trajectory", default="perf/trajectory.jsonl",
    )
    bench_history.add_argument(
        "--mode", choices=["smoke", "full"], default=None,
    )
    bench_history.add_argument(
        "--metric", default=None, help="restrict to one metric name"
    )
    bench_history.add_argument("--width", type=int, default=32)
    bench_history.set_defaults(func=_cmd_bench_history)

    return parser


def _load_policy(path: str):
    from repro.keylime.policy import RuntimePolicy

    with open(path, "r", encoding="utf-8") as handle:
        return RuntimePolicy.from_json(handle.read())


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.keylime.policytools import lint_excludes

    policy = _load_policy(args.policy_file)
    warnings = lint_excludes(policy)
    if not warnings:
        print(f"{args.policy_file}: no risky exclude rules")
        return 0
    for warning in warnings:
        print(f"WARNING: {warning.describe()}")
    print(f"{len(warnings)} risky exclude rule(s) -- see the paper's P1")
    return 1


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.keylime.policytools import diff_policies

    diff = diff_policies(_load_policy(args.old_file), _load_policy(args.new_file))
    print(diff.summary())
    for path in diff.added_paths[:20]:
        print(f"  + {path}")
    for path in diff.removed_paths[:20]:
        print(f"  - {path}")
    for path in diff.changed_paths[:20]:
        print(f"  ~ {path}")
    for pattern in diff.added_excludes:
        print(f"  + exclude {pattern}")
    for pattern in diff.removed_excludes:
        print(f"  - exclude {pattern}")
    return 0 if diff.is_empty else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.common.units import format_bytes
    from repro.keylime.policytools import policy_statistics

    stats = policy_statistics(_load_policy(args.policy_file))
    print(f"paths:               {stats.paths}")
    print(f"digests (lines):     {stats.digests}")
    print(f"mid-update paths:    {stats.multi_digest_paths}")
    print(f"exclude rules:       {stats.excludes}")
    print(f"approx size:         {format_bytes(stats.size_bytes)}")
    print("top directories:")
    for directory, count in stats.top_directories:
        print(f"  {count:>6}  {directory}")
    return 0


def _build_state_fleet(
    seed: str, n_nodes: int, fillers: int, push_mode: bool
):
    """A deterministic fleet rig for snapshot save/load round-trips.

    Provisioning is a pure function of ``(seed, n_nodes, fillers)`` and
    there is no release stream, so ``state load`` can rebuild machines
    bit-identical to the ones ``state save`` attested -- the snapshot
    only needs to carry the verifier's side of the world.  It is the
    sharding experiments' rig, :func:`repro.experiments.shardfleet
    .build_shard_rig`.
    """
    from repro.experiments.shardfleet import build_shard_rig

    return build_shard_rig(seed, n_nodes, fillers, push_mode)


def _drive_state_rounds(fleet, rounds: int, interval: float) -> None:
    for _ in range(rounds):
        fleet.scheduler.clock.advance_by(interval)
        fleet.poll_scheduler.poll_batch()


def _cmd_state_save(args: argparse.Namespace) -> int:
    from repro.keylime.statestore import write_snapshot

    fleet = _build_state_fleet(
        str(args.seed), args.nodes, args.fillers, args.push
    )
    _drive_state_rounds(fleet, args.rounds, args.interval)
    meta = {
        "rig": "state-fleet",
        "seed": str(args.seed),
        "nodes": args.nodes,
        "fillers": args.fillers,
        "rounds": args.rounds,
        "interval": args.interval,
        "push_mode": args.push,
    }
    header = write_snapshot(args.snapshot_file, fleet.verifier, meta=meta)
    mode = "push" if args.push else "pull"
    print(f"snapshot written to {args.snapshot_file}")
    print(f"  mode: {mode}, agents: {header['agents']}, "
          f"rounds per agent: {args.rounds}")
    print(f"  sim time: {header['created_at']:.0f}s, "
          f"body: {header['body_bytes']} bytes, "
          f"sha256: {header['checksum'][:16]}...")
    return 0


def _cmd_state_inspect(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.common.errors import IntegrityError
    from repro.keylime.statestore import inspect_snapshot

    try:
        summary = inspect_snapshot(args.snapshot_file)
    except IntegrityError as exc:
        print(f"snapshot rejected: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_module.dumps(summary, sort_keys=True, indent=2))
        return 0
    print(f"{summary['path']}: verifier snapshot v{summary['version']}")
    print(f"  created at:         {summary['created_at']:.0f}s sim time")
    print(f"  agents:             {summary['agents']}")
    for state, count in sorted(summary["states"].items()):
        print(f"    {state:<12s} {count}")
    print(f"  open push sessions: {summary['open_push_sessions']}")
    print(f"  results recorded:   {summary['results']}")
    print(f"  audit records:      {summary['audit_records']}")
    if summary.get("meta"):
        print(f"  meta:               {summary['meta']}")
    return 0


def _cmd_state_load(args: argparse.Namespace) -> int:
    from repro.common.errors import IntegrityError
    from repro.keylime.statestore import read_snapshot, restore_verifier

    try:
        body = read_snapshot(args.snapshot_file)
    except IntegrityError as exc:
        print(f"snapshot rejected: {exc}", file=sys.stderr)
        return 1
    meta = body.get("meta") or {}
    if meta.get("rig") != "state-fleet":
        print("snapshot was not written by `state save` (no state-fleet "
              "meta); use repro.keylime.statestore.restore_verifier with "
              "your own rig instead", file=sys.stderr)
        return 2

    fleet = _build_state_fleet(
        str(meta["seed"]), int(meta["nodes"]), int(meta["fillers"]),
        bool(meta["push_mode"]),
    )
    try:
        restored = restore_verifier(fleet.verifier, body)
    except IntegrityError as exc:
        print(f"snapshot rejected: {exc}", file=sys.stderr)
        return 1
    fleet.scheduler.clock.advance_to(float(body["created_at"]))
    mode = "push" if meta["push_mode"] else "pull"
    print(f"restored {len(restored)} agent(s) from {args.snapshot_file} "
          f"({mode} mode, zero re-enrollments)")
    for agent_id in restored:
        slot_state = fleet.verifier.state_of(agent_id).value
        offset = fleet.verifier.verified_entries_of(agent_id)
        print(f"  {agent_id:<16s} state={slot_state:<12s} "
              f"replay offset={offset}")
    if args.resume > 0:
        _drive_state_rounds(fleet, args.resume, float(meta["interval"]))
        print(f"resumed {args.resume} round(s):")
        for agent_id in restored:
            results = fleet.verifier.results_of(agent_id)
            fresh = results[-args.resume:]
            green = sum(1 for result in fresh if result.ok)
            print(f"  {agent_id:<16s} {green}/{len(fresh)} green, "
                  f"offset now {fleet.verifier.verified_entries_of(agent_id)}")
        if fleet.verifier.audit is not None:
            fleet.verifier.audit.verify_chain()
            print(f"audit chain verified: "
                  f"{len(fleet.verifier.audit)} records, "
                  f"head {fleet.verifier.audit.head_hash[:16]}...")
    return 0


def _cmd_shard_assign(args: argparse.Namespace) -> int:
    """Pure ring arithmetic: where would N agents land on M verifiers?"""
    from repro.keylime.sharding import ConsistentHashRing, shard_balance

    ring = ConsistentHashRing(str(args.seed), vnodes=args.vnodes)
    for index in range(args.verifiers):
        ring.add(f"verifier-{index}")
    keys = [f"agent-node-{i:03d}" for i in range(args.nodes)]
    assignment = ring.assignment(keys)
    sizes = ring.shard_sizes(keys)
    balance = shard_balance(sizes)
    print(f"ring: seed={args.seed!r}, {args.verifiers} member(s), "
          f"{ring.vnodes} vnodes/member")
    print(f"fingerprint: {ring.fingerprint(keys)[:16]}...")
    for member in ring.members:
        print(f"  {member:<14s} {sizes.get(member, 0):3d} agent(s)")
    print(f"balance: {balance:.3f} "
          f"(effective speedup ~= {args.verifiers * balance:.2f}x of "
          f"{args.verifiers}x ideal)")
    if args.show_agents:
        for key in keys:
            print(f"    {key} -> {assignment[key]}")
    if args.join:
        plan = ring.plan_join(keys, args.join)
        print(f"join {args.join}: {len(plan.moves)} key(s) move "
              f"(all to the joiner)")
        for move in plan.moves:
            print(f"    {move.key}: {move.source} -> {move.target}")
    if args.leave:
        plan = ring.plan_leave(keys, args.leave)
        print(f"leave {args.leave}: {len(plan.moves)} key(s) move "
              f"(only the leaver's range)")
        for move in plan.moves:
            print(f"    {move.key}: {move.source} -> {move.target}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import ReportScale, generate_report

    scale = ReportScale(
        seed=str(args.seed), fillers=args.fillers, longrun_days=args.days,
    )
    text = generate_report(scale)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
