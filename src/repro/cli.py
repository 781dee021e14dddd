"""Command-line interface: ``repro-lcs`` (or ``python -m repro.cli``).

Subcommands
-----------

- ``lcs A B`` — plain LCS score (and optionally one LCS witness),
- ``semilocal A B`` — semi-local queries / full H matrix for small inputs,
- ``bit A B`` — bit-parallel LCS of two binary strings,
- ``braid A B`` — ASCII sticky-braid cell map and kernel (Fig. 1),
- ``diff OLD NEW`` — line diff of two files,
- ``trace A B`` — bit-parallel anti-diagonal trace (Fig. 3),
- ``trace export RAW [-o OUT]`` — convert a raw span stream (written
  with ``--trace-raw``) to Chrome trace_event JSON (Perfetto-viewable),
- ``parallel A B`` — semi-local LCS on a parallel backend with a fault
  policy (``--task-timeout``, ``--retries``, ``--no-degrade``) and
  optional chaos injection,
- ``batch PAIRS`` — many-pair LCS through the batched throughput engine
  (``PAIRS`` is a TAB-separated two-column file, ``-`` for stdin);
  prints one ``index TAB score`` line per pair plus a pairs/sec summary,
- ``serve`` — the long-lived async batching daemon: continuous batching
  over concurrent clients with admission control, per-client quotas,
  deadlines, Prometheus metrics and graceful SIGTERM drain,
- ``client`` — score pairs against a running daemon (``--metrics`` /
  ``--health`` fetch its Prometheus text / health document instead),
- ``metrics FILE`` — offline converter: a ``--metrics-out`` JSON file to
  Prometheus text exposition format,
- ``bench NAME`` — run a figure benchmark (``bench list`` to enumerate),
- ``genomes`` — generate a simulated virus-strain FASTA file,
- ``checkpoint list|verify|gc DIR`` — inspect and maintain a durable
  kernel store.

``semilocal`` and ``parallel`` accept ``--checkpoint-dir DIR``
(durably persist every grid node as it completes; SIGINT/SIGTERM flush
in-flight state) and ``--resume`` (reuse verified artifacts from a
previous — possibly crashed — run).

``semilocal``, ``parallel``, ``batch``, ``bit`` and ``bench`` accept the
observability flags ``--trace FILE`` (Chrome trace_event JSON),
``--trace-raw FILE`` (lossless JSONL span stream), ``--metrics-out
FILE`` (counters/gauges/histograms + phase breakdown; see
docs/metrics.md) and ``--profile`` (print the phase breakdown to
stderr). See the "Observability & profiling" section of the README.

Library errors (:class:`~repro.errors.ReproError`, bad input files)
exit with status 2 and a one-line message, not a traceback.
"""

from __future__ import annotations

import argparse
import sys


def _make_checkpointer(args):
    """Build the (store, checkpointer) pair for --checkpoint-dir runs."""
    from .checkpoint import GridCheckpointer, KernelStore

    store = KernelStore(args.checkpoint_dir)
    return store, GridCheckpointer(store, resume=args.resume)


def _print_checkpoint_stats(store, machine=None) -> None:
    stats = store.stats()
    print(
        "checkpoint: "
        + ", ".join(f"{k}={stats[k]}" for k in ("hits", "misses", "corrupt", "writes"))
    )


def _cmd_lcs(args) -> int:
    from .alphabet import decode
    from .baselines.lcs_dp import lcs_backtrack
    from .baselines.prefix_lcs import prefix_lcs_rowmajor

    score = prefix_lcs_rowmajor(args.a, args.b)
    print(f"LCS({args.a!r}, {args.b!r}) = {score}")
    if args.witness:
        print(f"one LCS: {decode(lcs_backtrack(args.a, args.b))!r}")
    return 0


def _cmd_semilocal(args) -> int:
    from . import semilocal_lcs

    if args.checkpoint_dir:
        from .alphabet import encode
        from .checkpoint import flush_on_signals
        from .core.combing.hybrid import hybrid_combing_grid
        from .core.kernel import SemiLocalKernel
        from .errors import ReproError

        if args.algorithm not in ("semi_hybrid_iterative", "semi_hybrid"):
            raise ReproError(
                "--checkpoint-dir requires the grid-combing algorithm "
                "(--algorithm semi_hybrid_iterative); "
                f"got {args.algorithm!r}"
            )
        store, ckpt = _make_checkpointer(args)
        ca, cb = encode(args.a), encode(args.b)
        with flush_on_signals(ckpt):
            perm = hybrid_combing_grid(ca, cb, checkpoint=ckpt)
        k = SemiLocalKernel(perm, ca.size, cb.size, validate=False)
        _print_checkpoint_stats(store)
    else:
        k = semilocal_lcs(args.a, args.b, algorithm=args.algorithm)
    print(f"kernel order: {k.m + k.n} (m={k.m}, n={k.n})")
    print(f"LCS(a, b) = {k.lcs_whole()}")
    if args.h_matrix:
        if k.m + k.n > 64:
            print("H matrix too large to print (m + n > 64)", file=sys.stderr)
            return 1
        print(k.h_matrix())
    if args.query:
        kind, l, r = args.query
        fn = {
            "string-substring": k.string_substring,
            "substring-string": k.substring_string,
            "prefix-suffix": k.prefix_suffix,
            "suffix-prefix": k.suffix_prefix,
        }[kind]
        print(f"{kind}({l}, {r}) = {fn(int(l), int(r))}")
    return 0


def _cmd_bit(args) -> int:
    from .core.bitparallel import bit_lcs

    print(bit_lcs(args.a, args.b, variant=args.variant, multi_diag=args.multi_diag))
    return 0


def _cmd_braid(args) -> int:
    from .core.braid import StickyBraid

    braid = StickyBraid(args.a, args.b)
    print(braid)
    print(braid.ascii_grid())
    print("kernel:", braid.kernel.tolist())
    if args.svg:
        with open(args.svg, "w", encoding="ascii") as fh:
            fh.write(braid.to_svg())
        print(f"wrote {args.svg}")
    return 0


def _cmd_trace(args) -> int:
    from .errors import ReproError

    if args.a == "export":
        from .obs import read_raw, write_chrome_trace

        if not args.b:
            raise ReproError(
                "trace export requires a raw span file (written with --trace-raw)"
            )
        events = read_raw(args.b)
        out = args.output or "trace.json"
        write_chrome_trace(out, events)
        print(f"wrote {len(events)} span(s) to {out}")
        return 0
    if args.b is None:
        raise ReproError("trace requires two binary strings A B")
    from .core.bitparallel.trace import format_snapshots

    print(format_snapshots(args.a, args.b))
    return 0


def _cmd_diff(args) -> int:
    from .apps.diff import diff_lines, similarity, unified

    with open(args.old, encoding="utf-8") as fh:
        old = fh.read()
    with open(args.new, encoding="utf-8") as fh:
        new = fh.read()
    print(unified(diff_lines(old, new)))
    print(f"similarity: {similarity(old, new):.1%}")
    return 0


def _cmd_parallel(args) -> int:
    from .alphabet import encode
    from .core.combing.parallel import (
        parallel_hybrid_combing_grid,
        parallel_iterative_combing,
        parallel_load_balanced_combing,
    )
    from .core.kernel import SemiLocalKernel
    from .core.steady_ant.parallel import steady_ant_parallel
    from .errors import ReproError
    from .parallel import FaultPolicy, make_machine

    policy = FaultPolicy(
        task_timeout=args.task_timeout,
        max_retries=args.retries,
        degrade_to_serial=not args.no_degrade,
        seed=args.seed,
    )
    if args.transport == "shm" and args.backend != "processes":
        raise ReproError(
            "--transport shm requires --backend processes "
            f"(got --backend {args.backend})"
        )
    if args.chaos_shm_loss_after is not None and args.transport != "shm":
        raise ReproError("--chaos-shm-loss-after requires --transport shm")
    chaos = None
    if (
        args.chaos_fail_rate > 0
        or args.chaos_delay_rate > 0
        or args.chaos_abort_after is not None
        or args.chaos_shm_loss_after is not None
    ):
        chaos = {
            "fail_rate": args.chaos_fail_rate,
            "delay_rate": args.chaos_delay_rate,
            "abort_after": args.chaos_abort_after,
            "shm_loss_after": args.chaos_shm_loss_after,
            "seed": args.seed,
        }
    store = ckpt = None
    if args.checkpoint_dir:
        if args.algorithm != "hybrid":
            raise ReproError(
                "--checkpoint-dir only supports the grid algorithm "
                f"(--algorithm hybrid); got {args.algorithm!r}"
            )
        store, ckpt = _make_checkpointer(args)
    backend_kwargs = {"transport": args.transport} if args.backend == "processes" else {}
    machine = make_machine(
        args.backend, workers=args.workers, policy=policy, chaos=chaos, **backend_kwargs
    )
    try:
        from .checkpoint import cleanup_on_signals
        from .parallel import release_all_arenas

        # SIGINT/SIGTERM must not leave named /dev/shm segments behind
        with cleanup_on_signals(release_all_arenas):
            ca, cb = encode(args.a), encode(args.b)
            if args.algorithm == "hybrid":
                if ckpt is not None:
                    from .checkpoint import flush_on_signals

                    with flush_on_signals(ckpt):
                        perm = parallel_hybrid_combing_grid(ca, cb, machine, checkpoint=ckpt)
                    _print_checkpoint_stats(store)
                else:
                    perm = parallel_hybrid_combing_grid(ca, cb, machine)
            elif args.algorithm == "combing":
                perm = parallel_iterative_combing(ca, cb, machine)
            elif args.algorithm == "load-balanced":
                perm = parallel_load_balanced_combing(ca, cb, machine)
            else:  # steady-ant: comb the halves, multiply them in parallel
                from .core.combing.hybrid import hybrid_combing

                def multiply(p, q):
                    return steady_ant_parallel(p, q, machine=machine)

                perm = hybrid_combing(ca, cb, depth=1, multiply=multiply)
            k = SemiLocalKernel(perm, ca.size, cb.size, validate=False)
        from .obs import collect_machine

        collect_machine(machine)
        print(f"LCS(a, b) = {k.lcs_whole()}")
        print(f"backend: {args.backend} x{machine.workers}, elapsed {machine.elapsed:.4f}s")
        transport_stats = getattr(machine, "transport_stats", None)
        if transport_stats is not None and args.backend == "processes":
            stats = transport_stats()
            print(
                f"transport: {stats.get('transport_active', args.transport)} "
                f"(requested {stats.get('transport', args.transport)}), "
                f"shipped {stats.get('bytes_shipped', 0)} B, "
                f"returned {stats.get('bytes_returned', 0)} B, "
                f"fallbacks {stats.get('transport_fallbacks', 0)}"
            )
        health = getattr(machine, "health", None)
        if health is not None:
            for key, value in health().items():
                print(f"  {key}: {value}")
    finally:
        close = getattr(machine, "close", None)
        if close is not None:
            close()
    return 0


def _read_pairs(path: str) -> list[tuple[str, str]]:
    """Read TAB-separated ``A<TAB>B`` pairs (``-`` = stdin, blanks skipped)."""
    from .errors import ReproError

    fh = sys.stdin if path == "-" else open(path, encoding="utf-8")
    try:
        pairs = []
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise ReproError(
                    f"{path}:{lineno}: expected two TAB-separated columns, got {len(cols)}"
                )
            pairs.append((cols[0], cols[1]))
        return pairs
    finally:
        if fh is not sys.stdin:
            fh.close()


def _cmd_batch(args) -> int:
    import time

    from .batch import batch_lcs, batch_semilocal_lcs
    from .checkpoint import cleanup_on_signals
    from .errors import ReproError
    from .parallel import make_machine, release_all_arenas

    if args.transport == "shm" and args.backend != "processes":
        raise ReproError(
            "--transport shm requires --backend processes "
            f"(got --backend {args.backend})"
        )
    pairs = _read_pairs(args.pairs)
    machine = None
    if args.backend != "none":
        backend_kwargs = {"transport": args.transport} if args.backend == "processes" else {}
        machine = make_machine(args.backend, workers=args.workers, **backend_kwargs)
    try:
        with cleanup_on_signals(release_all_arenas):
            start = time.perf_counter()
            if args.kernels:
                kernels = batch_semilocal_lcs(
                    pairs,
                    algorithm=args.algorithm,
                    machine=machine,
                    max_lanes=args.max_lanes,
                )
                elapsed = time.perf_counter() - start
                scores = [k.lcs_whole() for k in kernels]
            else:
                scores = batch_lcs(
                    pairs,
                    algorithm=args.algorithm,
                    machine=machine,
                    max_lanes=args.max_lanes,
                )
                elapsed = time.perf_counter() - start
            # snapshot before the block exits: cleanup releases the arena
            transport_stats = getattr(machine, "transport_stats", None)
            stats = transport_stats() if transport_stats is not None else None
        for i, score in enumerate(scores):
            print(f"{i}\t{int(score)}")
        if machine is not None:
            from .obs import collect_machine

            collect_machine(machine)
        rate = len(pairs) / elapsed if elapsed > 0 else float("inf")
        print(
            f"batch: {len(pairs)} pair(s) in {elapsed:.4f}s "
            f"({rate:.1f} pairs/s, backend {args.backend})",
            file=sys.stderr,
        )
        if stats is not None and args.backend == "processes":
            arena = stats.get("arena", {})
            print(
                f"transport: {stats.get('transport_active', args.transport)}, "
                f"shipped {stats.get('bytes_shipped', 0)} B, "
                f"returned {stats.get('bytes_returned', 0)} B, "
                f"slabs free/used {arena.get('slabs_free', 0)}/{arena.get('slabs_used', 0)}",
                file=sys.stderr,
            )
    finally:
        close = getattr(machine, "close", None)
        if close is not None:
            close()
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .errors import ReproError
    from .parallel import FaultPolicy
    from .serve import Engine, LcsServer, ServerConfig

    if args.transport == "shm" and args.backend != "processes":
        raise ReproError(
            "--transport shm requires --backend processes "
            f"(got --backend {args.backend})"
        )
    chaos = None
    if (
        args.chaos_fail_rate > 0
        or args.chaos_abort_after is not None
        or args.chaos_shm_loss_after is not None
    ):
        chaos = {
            "fail_rate": args.chaos_fail_rate,
            "abort_after": args.chaos_abort_after,
            "shm_loss_after": args.chaos_shm_loss_after,
            "seed": args.seed,
        }
    policy: FaultPolicy | bool = FaultPolicy(
        task_timeout=args.task_timeout,
        max_retries=args.retries,
        degrade_to_serial=not args.no_degrade,
        seed=args.seed,
    )
    engine = Engine(
        backend=args.backend,
        workers=args.workers,
        transport=args.transport,
        algorithm=args.algorithm,
        max_lanes=args.max_lanes,
        policy=policy if args.backend != "none" else None,
        chaos=chaos,
        query_store_dir=args.query_store,
        query_max_bytes=args.query_max_bytes,
        query_max_kernels=args.query_max_kernels,
        query_counter_kind=args.query_counter_kind,
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_wait_ms=args.max_wait_ms,
        queue_cap=args.queue_cap,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        default_deadline_ms=args.default_deadline_ms,
    )

    async def run() -> dict:
        server = LcsServer(engine, config)
        await server.start()
        print(f"serving on {config.host}:{server.port}", flush=True)
        await server.serve_forever()
        return server.stats()

    stats = asyncio.run(run())
    print(
        "drain complete: "
        + ", ".join(
            f"{k}={stats[k]}"
            for k in ("admitted", "completed", "shed", "drained", "batches", "max_occupancy")
        ),
        file=sys.stderr,
    )
    return 0 if stats["admitted"] == stats["completed"] else 1


def _cmd_client(args) -> int:
    from .serve import ServeClient

    with ServeClient(args.host, args.port, client_id=args.client_id) as client:
        if args.metrics:
            print(client.metrics(), end="")
            return 0
        if args.health:
            import json

            print(json.dumps(client.health(), indent=2, sort_keys=True))
            return 0
        from .errors import ReproError

        if not args.pairs:
            raise ReproError("client needs a PAIRS file (or --metrics / --health)")
        pairs = _read_pairs(args.pairs)
        import time

        if args.query:
            import json

            params = _query_params(args.query, args)
            start = time.perf_counter()
            for i, (a, b) in enumerate(pairs):
                result = client.query(
                    args.query, a, b, deadline_ms=args.deadline_ms, **params
                )
                print(f"{i}\t{json.dumps(result)}")
            elapsed = time.perf_counter() - start
            rate = len(pairs) / elapsed if elapsed > 0 else float("inf")
            print(
                f"client: {len(pairs)} '{args.query}' quer(ies) in "
                f"{elapsed:.4f}s ({rate:.1f} queries/s)",
                file=sys.stderr,
            )
            return 0
        start = time.perf_counter()
        scores = client.batch(pairs, deadline_ms=args.deadline_ms)
        elapsed = time.perf_counter() - start
        for i, score in enumerate(scores):
            print(f"{i}\t{score}")
        rate = len(pairs) / elapsed if elapsed > 0 else float("inf")
        print(
            f"client: {len(pairs)} pair(s) in {elapsed:.4f}s ({rate:.1f} pairs/s)",
            file=sys.stderr,
        )
    return 0


def _query_params(op: str, args) -> dict:
    """Collect a query op's parameters from CLI flags, validating the
    required ones up front (shared by 'query' and 'client --query')."""
    from .errors import ReproError

    params: dict = {}
    if op == "windowed_lcs":
        if args.window is None:
            raise ReproError("'windowed_lcs' needs --window")
        params["window"] = args.window
    elif op == "substring_threshold_matches":
        if args.theta is None:
            raise ReproError("'substring_threshold_matches' needs --theta")
        params["theta"] = args.theta
        if args.window is not None:
            params["window"] = args.window
    elif op == "append":
        if args.suffix is None:
            raise ReproError("'append' needs --suffix")
        params["suffix"] = args.suffix
    elif op == "prepend":
        if args.prefix is None:
            raise ReproError("'prepend' needs --prefix")
        params["prefix"] = args.prefix
    return params


def _cmd_query(args) -> int:
    import json

    from .query import QueryEngine

    store = None
    if args.store:
        from .checkpoint import KernelStore

        store = KernelStore(args.store, max_bytes=args.max_bytes)
    engine = QueryEngine(
        store=store, max_kernels=args.max_kernels, counter_kind=args.counter_kind
    )
    params = _query_params(args.op, args)
    result = None
    for _ in range(max(1, args.repeat)):
        result = engine.answer(args.op, args.a, args.b, **params)
    print(json.dumps(result))
    print(f"query: {json.dumps(engine.stats(), sort_keys=True)}", file=sys.stderr)
    return 0


def _cmd_metrics(args) -> int:
    import json

    from .errors import ReproError
    from .obs import to_prometheus

    with open(args.file, encoding="utf-8") as fh:
        doc = json.load(fh)
    snapshot = doc.get("metrics") if isinstance(doc, dict) else None
    if snapshot is None:
        raise ReproError(
            f"{args.file}: not a metrics JSON file (expected a 'metrics' key; "
            "write one with --metrics-out)"
        )
    print(to_prometheus(snapshot), end="")
    return 0


def _cmd_bench(args) -> int:
    from .bench.figures import FIGURES

    if args.name == "list":
        for name, fn in sorted(FIGURES.items()):
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:14s} {doc}")
        return 0
    if args.name == "all":
        names = sorted(FIGURES)
    else:
        names = [args.name]
    for name in names:
        try:
            fn = FIGURES[name]
        except KeyError:
            print(f"unknown figure {name!r}; try 'bench list'", file=sys.stderr)
            return 1
        print(fn().render())
        print()
    return 0


def _cmd_genomes(args) -> int:
    from .datasets.fasta import write_fasta
    from .datasets.genomes import VIRUS_PRESETS, GenomeSimulator

    length = VIRUS_PRESETS.get(args.preset)
    if length is None:
        print(f"unknown preset {args.preset!r}; available: {sorted(VIRUS_PRESETS)}", file=sys.stderr)
        return 1
    sim = GenomeSimulator(seed=args.seed)
    strains = sim.strains(length, args.count)
    write_fasta(args.output, sim.to_fasta_records(strains, prefix=args.preset))
    print(f"wrote {args.count} simulated {args.preset} strains to {args.output}")
    return 0


def _cmd_checkpoint(args) -> int:
    import json
    import os

    from .checkpoint import KernelStore, load_journal

    store = KernelStore(args.dir, create=False)
    if args.action == "list":
        count = 0
        for manifest in store.entries():
            count += 1
            key = manifest["key"]
            if manifest.get("status") != "ok":
                print(f"{key[:16]}…  {manifest['status']}")
                continue
            print(
                f"{key[:16]}…  algo={manifest.get('algorithm')} "
                f"m={manifest.get('m')} n={manifest.get('n')} "
                f"created={manifest.get('created')}"
            )
        print(f"{count} artifact(s) in {args.dir}")
        runs_dir = os.path.join(args.dir, "runs")
        if os.path.isdir(runs_dir):
            for name in sorted(os.listdir(runs_dir)):
                if not name.endswith(".jsonl"):
                    continue
                journal = load_journal(os.path.join(runs_dir, name))
                if journal is None:
                    print(f"run {name}: unreadable journal")
                    continue
                print(f"run {name}: {json.dumps(journal, sort_keys=True)}")
        return 0
    if args.action == "verify":
        report = store.verify()
        bad = {k: v for k, v in report.items() if v != "ok"}
        for key, status in sorted(bad.items()):
            print(f"{key[:16]}…  {status}")
        print(f"verified {len(report)} artifact(s): {len(report) - len(bad)} ok, {len(bad)} bad")
        return 1 if bad else 0
    # gc
    counts = store.gc(max_age_days=args.max_age_days, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    reclaim_verb = "would reclaim" if args.dry_run else "reclaimed"
    print(
        f"{verb} {counts['corrupt']} corrupt, {counts['orphans']} orphaned, "
        f"{counts['aged']} aged, {counts['tmp']} temp file(s); "
        f"{reclaim_verb} {counts['reclaimed_bytes']} byte(s); {counts['kept']} kept"
    )
    return 0


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """Attach the shared observability flags to a subcommand parser."""
    g = p.add_argument_group("observability")
    g.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace_event JSON of the run (open in Perfetto)",
    )
    g.add_argument(
        "--trace-raw",
        metavar="FILE",
        help="write the lossless raw span stream (JSONL; see 'trace export')",
    )
    g.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the metrics registry + phase breakdown as JSON",
    )
    g.add_argument(
        "--profile",
        action="store_true",
        help="print the per-phase wall/CPU breakdown to stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lcs",
        description="Semi-local LCS, sticky braids and bit-parallel LCS (ICPP 2021 reproduction)",
    )
    from . import __version__

    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lcs", help="plain LCS score")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--witness", action="store_true", help="also print one LCS")
    p.set_defaults(fn=_cmd_lcs)

    p = sub.add_parser("semilocal", help="semi-local LCS queries")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--algorithm",
        default="semi_hybrid_iterative",
        help=(
            "kernel algorithm (default: semi_hybrid_iterative, the grid "
            "combing of Listing 7; see repro.semilocal_lcs for the registry)"
        ),
    )
    p.add_argument("--h-matrix", action="store_true", help="print the full H matrix")
    p.add_argument(
        "--query",
        nargs=3,
        metavar=("KIND", "L", "R"),
        help="KIND in {string-substring, substring-string, prefix-suffix, suffix-prefix}",
    )
    p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="durably checkpoint every grid node into this kernel store",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="reuse verified artifacts from a previous run in --checkpoint-dir",
    )
    _add_obs_args(p)
    p.set_defaults(fn=_cmd_semilocal)

    p = sub.add_parser("bit", help="bit-parallel LCS of binary strings")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--variant", default="new2", choices=["old", "new1", "new2"])
    p.add_argument(
        "--multi-diag",
        action="store_true",
        help=(
            "use the multi-diagonal column sweep (several anti-diagonals "
            "per batched word op; strongest on long strings)"
        ),
    )
    _add_obs_args(p)
    p.set_defaults(fn=_cmd_bit)

    p = sub.add_parser("braid", help="show the sticky braid of a pair (Fig. 1)")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--svg", help="write an SVG rendering to this path")
    p.set_defaults(fn=_cmd_braid)

    p = sub.add_parser(
        "trace",
        help="bit-parallel anti-diagonal trace (Fig. 3), or 'trace export RAW'",
        description=(
            "trace A B: print the bit-parallel anti-diagonal snapshots of two "
            "binary strings. trace export RAW: convert a raw span stream "
            "(written with --trace-raw) into Chrome trace_event JSON that "
            "Perfetto (https://ui.perfetto.dev) can open."
        ),
    )
    p.add_argument("a", help="binary string A, or the word 'export'")
    p.add_argument("b", nargs="?", help="binary string B, or the raw JSONL span file")
    p.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="export: output path for the Chrome trace (default: trace.json)",
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("diff", help="line diff of two files (LCS-based)")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(fn=_cmd_diff)

    p = sub.add_parser(
        "parallel",
        help="semi-local LCS on a parallel backend with a fault policy",
        description=(
            "Run a machine-parameterized parallel algorithm under a "
            "ResilientMachine fault policy, optionally with chaos injection. "
            "Prints the LCS plus the machine's health counters."
        ),
    )
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--algorithm",
        default="hybrid",
        choices=["hybrid", "combing", "load-balanced", "steady-ant"],
        help="parallel algorithm (default: hybrid grid combing)",
    )
    p.add_argument(
        "--backend",
        default="serial",
        choices=["serial", "threads", "processes", "simulated"],
        help="execution machine (default: serial)",
    )
    p.add_argument("--workers", type=int, default=2, help="worker count for real backends")
    p.add_argument(
        "--transport",
        default="pickle",
        choices=["pickle", "shm"],
        help=(
            "array transport for the processes backend: 'shm' broadcasts "
            "inputs once into shared memory and ships compact handles "
            "(default: pickle)"
        ),
    )
    p.add_argument(
        "--chaos-shm-loss-after",
        type=int,
        default=None,
        metavar="N",
        help="inject a shared-memory outage after N segment allocations (testing)",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task timeout enforced by the fault policy",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=2,
        help="per-task retries after a failed round (0 disables recovery)",
    )
    p.add_argument(
        "--no-degrade",
        action="store_true",
        help="fail instead of falling back to serial execution",
    )
    p.add_argument(
        "--chaos-fail-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="inject task failures with probability P (testing)",
    )
    p.add_argument(
        "--chaos-delay-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="inject task delays with probability P (testing)",
    )
    p.add_argument(
        "--chaos-abort-after",
        type=int,
        default=None,
        metavar="N",
        help="simulate a process death after N completed tasks (testing)",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for chaos + backoff jitter")
    p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="durably checkpoint every grid node into this kernel store (hybrid only)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="reuse verified artifacts from a previous run in --checkpoint-dir",
    )
    _add_obs_args(p)
    p.set_defaults(fn=_cmd_parallel)

    p = sub.add_parser(
        "batch",
        help="many-pair LCS through the batched throughput engine",
        description=(
            "Score many string pairs at once: pairs sharing a padded shape "
            "comb in lockstep, megabatches ship through reusable shared-memory "
            "slabs, and rounds pipeline across workers. PAIRS is a text file "
            "with one TAB-separated pair per line ('-' reads stdin)."
        ),
    )
    p.add_argument("pairs", help="TAB-separated pairs file, or '-' for stdin")
    p.add_argument(
        "--algorithm",
        default="semi_antidiag_simd",
        help="kernel algorithm (default: semi_antidiag_simd, the lockstep-batched one)",
    )
    p.add_argument(
        "--kernels",
        action="store_true",
        help="build full semi-local kernels instead of the score-only fast path",
    )
    p.add_argument(
        "--backend",
        default="none",
        choices=["none", "serial", "threads", "processes", "simulated"],
        help="execution machine (default: none = comb in-process)",
    )
    p.add_argument("--workers", type=int, default=2, help="worker count for real backends")
    p.add_argument(
        "--transport",
        default="pickle",
        choices=["pickle", "shm"],
        help="array transport for the processes backend (default: pickle)",
    )
    p.add_argument(
        "--max-lanes",
        type=int,
        default=64,
        metavar="B",
        help="megabatch width cap (default: 64)",
    )
    _add_obs_args(p)
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser(
        "serve",
        help="long-lived async batching daemon (continuous batching + drain)",
        description=(
            "Serve LCS scoring over newline-delimited JSON/TCP: concurrent "
            "client requests coalesce into lockstep megabatches on a warm "
            "engine, behind a bounded admission queue, per-client quotas, "
            "deadlines and structured overload errors. SIGTERM drains "
            "gracefully: accepted requests are flushed, nothing is dropped."
        ),
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    p.add_argument(
        "--port", type=int, default=7077,
        help="TCP port; 0 picks a free one (printed at startup; default: 7077)",
    )
    p.add_argument(
        "--backend",
        default="none",
        choices=["none", "serial", "threads", "processes", "simulated"],
        help="execution machine (default: none = comb in-process)",
    )
    p.add_argument("--workers", type=int, default=2, help="worker count for real backends")
    p.add_argument(
        "--transport",
        default="pickle",
        choices=["pickle", "shm"],
        help="array transport for the processes backend (default: pickle)",
    )
    p.add_argument(
        "--algorithm",
        default="semi_antidiag_simd",
        help="kernel algorithm (default: semi_antidiag_simd, the lockstep-batched one)",
    )
    p.add_argument("--max-lanes", type=int, default=64, metavar="B",
                   help="megabatch width cap (default: 64)")
    p.add_argument("--max-wait-ms", type=float, default=5.0, metavar="MS",
                   help="batcher collection window after the first request (default: 5)")
    p.add_argument("--queue-cap", type=int, default=256, metavar="N",
                   help="bounded admission queue length; beyond it requests are shed (default: 256)")
    p.add_argument("--quota-rate", type=float, default=0.0, metavar="R",
                   help="per-client token-bucket refill rate, pairs/s (0 = unlimited)")
    p.add_argument("--quota-burst", type=float, default=16.0, metavar="B",
                   help="per-client token-bucket capacity (default: 16)")
    p.add_argument("--default-deadline-ms", type=float, default=None, metavar="MS",
                   help="deadline for requests that do not carry their own")
    p.add_argument("--task-timeout", type=float, default=None, metavar="SECONDS",
                   help="per-task timeout enforced by the fault policy")
    p.add_argument("--retries", type=int, default=2,
                   help="per-task retries after a failed round (default: 2)")
    p.add_argument("--no-degrade", action="store_true",
                   help="fail requests instead of degrading rounds to serial")
    p.add_argument("--chaos-fail-rate", type=float, default=0.0, metavar="P",
                   help="inject task failures with probability P (testing)")
    p.add_argument("--chaos-abort-after", type=int, default=None, metavar="N",
                   help="simulate a process death after N completed tasks (testing)")
    p.add_argument("--chaos-shm-loss-after", type=int, default=None, metavar="N",
                   help="inject a shared-memory outage after N segment allocations (testing)")
    p.add_argument("--seed", type=int, default=0, help="seed for chaos + backoff jitter")
    g = p.add_argument_group("query tier (kernel memoization)")
    g.add_argument("--query-store", metavar="DIR", default=None,
                   help="back the query tier with an on-disk kernel store in DIR")
    g.add_argument("--query-max-bytes", type=int, default=None, metavar="BYTES",
                   help="LRU byte budget of --query-store (default: unbounded)")
    g.add_argument("--query-max-kernels", type=int, default=64, metavar="N",
                   help="in-memory LRU capacity in live kernels (default: 64)")
    from .core.dominance import COUNTER_KINDS as _COUNTER_KINDS

    g.add_argument("--query-counter-kind", default=None, metavar="KIND",
                   choices=list(_COUNTER_KINDS),
                   help="force the query tier's dominance-counting structure "
                        f"(KIND in {{{', '.join(_COUNTER_KINDS)}}}; "
                        "default: size-based)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "client",
        help="score pairs against a running daemon",
        description=(
            "Send a TAB-separated pairs file to a repro-lcs serve daemon as one "
            "'batch' request and print 'index TAB score' lines; --metrics / "
            "--health fetch the daemon's Prometheus text / health JSON instead."
        ),
    )
    p.add_argument("pairs", nargs="?", default=None,
                   help="TAB-separated pairs file, or '-' for stdin")
    p.add_argument("--host", default="127.0.0.1", help="daemon address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=7077, help="daemon port (default: 7077)")
    p.add_argument("--client-id", default=None, help="quota key to send (default: peer address)")
    p.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                   help="deadline budget for the request")
    p.add_argument("--metrics", action="store_true",
                   help="print the daemon's metrics in Prometheus text format")
    p.add_argument("--health", action="store_true",
                   help="print the daemon's health document as JSON")
    from .query.catalog import QUERY_OPS as _QUERY_OPS

    p.add_argument("--query", metavar="OP", default=None, choices=list(_QUERY_OPS),
                   help="send one 'query' request per pair instead of a scoring "
                        f"batch (OP in {{{', '.join(_QUERY_OPS)}}})")
    p.add_argument("--window", type=int, default=None, metavar="W",
                   help="--query windowed_lcs / substring_threshold_matches window")
    p.add_argument("--theta", type=float, default=None, metavar="T",
                   help="--query substring_threshold_matches threshold in (0, 1]")
    p.add_argument("--suffix", default=None, metavar="S",
                   help="--query append suffix string")
    p.add_argument("--prefix", default=None, metavar="S",
                   help="--query prepend prefix string")
    p.set_defaults(fn=_cmd_client)

    p = sub.add_parser(
        "query",
        help="semi-local queries off a memoized kernel (one kernel, many queries)",
        description=(
            "Answer semi-local queries (see docs/queries.md) over a pair's "
            "cached kernel: the first op combs once, every further op — and "
            "every --repeat — reuses the kernel. --store persists kernels "
            "across invocations (with --max-bytes it becomes an LRU cache); "
            "the engine's hit/miss statistics print to stderr."
        ),
    )
    p.add_argument("op", choices=list(_QUERY_OPS), help="query op from the catalog")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--window", type=int, default=None, metavar="W",
                   help="windowed_lcs / substring_threshold_matches window")
    p.add_argument("--theta", type=float, default=None, metavar="T",
                   help="substring_threshold_matches threshold in (0, 1]")
    p.add_argument("--suffix", default=None, metavar="S", help="append suffix string")
    p.add_argument("--prefix", default=None, metavar="S", help="prepend prefix string")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="back the engine with an on-disk kernel store in DIR")
    p.add_argument("--max-bytes", type=int, default=None, metavar="BYTES",
                   help="LRU byte budget of --store (default: unbounded)")
    p.add_argument("--max-kernels", type=int, default=64, metavar="N",
                   help="in-memory LRU capacity in live kernels (default: 64)")
    p.add_argument("--repeat", type=int, default=1, metavar="K",
                   help="answer the op K times (demonstrates memoization)")
    p.add_argument("--counter-kind", default=None, metavar="KIND",
                   choices=list(_COUNTER_KINDS),
                   help="force the dominance-counting structure "
                        f"(KIND in {{{', '.join(_COUNTER_KINDS)}}}; "
                        "default: size-based)")
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser(
        "metrics",
        help="convert a --metrics-out JSON file to Prometheus text",
        description=(
            "Offline converter: render the metrics snapshot written by any "
            "subcommand's --metrics-out flag in Prometheus text exposition "
            "format (the same rendering the daemon's 'metrics' request serves)."
        ),
    )
    p.add_argument("file", help="metrics JSON file written with --metrics-out")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("bench", help="run a figure benchmark ('bench list')")
    p.add_argument("name")
    _add_obs_args(p)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("genomes", help="generate simulated virus strains (FASTA)")
    p.add_argument("--preset", default="coronavirus")
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="strains.fasta")
    p.set_defaults(fn=_cmd_genomes)

    p = sub.add_parser(
        "checkpoint",
        help="inspect or maintain a durable kernel store",
        description=(
            "list: show stored kernel artifacts and run journals; "
            "verify: integrity-check every artifact (exit 1 if any is bad); "
            "gc: remove corrupt, orphaned, temporary and (optionally) aged artifacts."
        ),
    )
    p.add_argument("action", choices=["list", "verify", "gc"])
    p.add_argument("dir", help="the kernel store directory")
    p.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="gc: also remove healthy artifacts older than DAYS",
    )
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="gc: report what would be removed without deleting anything",
    )
    p.set_defaults(fn=_cmd_checkpoint)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .errors import AlphabetError, ReproError
    from .obs import observed, phase_breakdown

    try:
        with observed(
            trace=getattr(args, "trace", None),
            trace_raw=getattr(args, "trace_raw", None),
            metrics_out=getattr(args, "metrics_out", None),
            profile=getattr(args, "profile", False),
        ):
            code = args.fn(args)
        if getattr(args, "profile", False):
            for name, rec in sorted(phase_breakdown().items()):
                print(
                    f"phase {name}: calls={rec['calls']} "
                    f"wall={rec['wall_s']:.4f}s cpu={rec['cpu_s']:.4f}s",
                    file=sys.stderr,
                )
        return code
    except (ReproError, AlphabetError, FileNotFoundError, ValueError) as exc:
        print(f"repro-lcs: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
