"""Update-generation and signing tooling (command line).

The host-side half of UpKit: generate keys, turn a firmware binary into
a signed vendor release, specialise it for a device token (the update
server's double signature), and verify/inspect images — all on files,
so the tooling works without any network.

Subcommands::

    upkit keygen  --out keys/ [--vendor-seed S] [--server-seed S]
    upkit release --firmware fw.bin --version N --app-id A
                  --link-offset L --vendor-key keys/vendor.key
                  --out release.bin
    upkit prepare --release release.bin --server-key keys/server.key
                  --device-id D --nonce X [--current-version V
                  --old-firmware old.bin] --out image.bin
    upkit verify  --image image.bin --vendor-pub keys/vendor.pub
                  --server-pub keys/server.pub
    upkit inspect --image image.bin
    upkit bench   [--devices N] [--image-size BYTES]
                  [--out BENCH_fleet.json] [--baseline PREV.json]
                  [--tolerance F]
                  [--delta-out BENCH_delta.json] [--delta-size BYTES]
    upkit chaos   [--points N] [--seed S] [--slots a|b]
                  [--transport push|pull] [--image-size BYTES]
                  [--correlated] [--devices N] [--domains N]
                  [--grid N] [--out CHAOS_report.json]
    upkit trace   [--slots a|b|both] [--transport push|pull]
                  [--image-size BYTES] [--out trace.json]
    upkit fleetview [--devices N] [--image-size BYTES]
                  [--slo-p95 S] [--slo-failure-rate F] [--slo-energy MJ]
                  [--out FLEET_telemetry.json]
                  [--metrics-out FLEET_metrics.prom]
    upkit report  [--validate] PATH...

Run as ``python -m repro.tools.cli <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ..compression import compress as lzss_compress
from ..core import (
    DeviceToken,
    PayloadKind,
    SignedManifest,
    SigningIdentity,
    TrustAnchors,
    UpdateImage,
    VendorRelease,
    VendorServer,
    Verifier,
)
from ..crypto import PrivateKey, PublicKey, generate_keypair, get_backend
from ..delta import diff as bsdiff_diff

__all__ = ["main"]


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_private(path: str) -> PrivateKey:
    return PrivateKey(int(_read(path).decode("ascii").strip(), 16))


def _load_public(path: str) -> PublicKey:
    return PublicKey.decode(bytes.fromhex(_read(path).decode("ascii").strip()))


# -- subcommands -----------------------------------------------------------------


def cmd_keygen(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)
    for role, seed in (("vendor", args.vendor_seed),
                       ("server", args.server_seed)):
        key = generate_keypair(seed.encode("utf-8"))
        _write(os.path.join(args.out, "%s.key" % role),
               ("%064x" % key.scalar).encode("ascii"))
        _write(os.path.join(args.out, "%s.pub" % role),
               key.public_key().encode().hex().encode("ascii"))
    print("wrote vendor.key/.pub and server.key/.pub to %s" % args.out)
    return 0


def cmd_release(args: argparse.Namespace) -> int:
    firmware = _read(args.firmware)
    identity = SigningIdentity("vendor", _load_private(args.vendor_key))
    vendor = VendorServer(identity, app_id=args.app_id,
                          link_offset=args.link_offset)
    release = vendor.release(firmware, args.version)
    blob = (release.manifest.pack() + release.vendor_signature
            + release.firmware)
    _write(args.out, blob)
    print("release v%d: %d firmware bytes, digest %s..."
          % (args.version, len(firmware),
             release.manifest.digest.hex()[:16]))
    return 0


def _load_release(path: str) -> VendorRelease:
    from ..core.manifest import MANIFEST_SIZE, Manifest

    blob = _read(path)
    manifest = Manifest.unpack(blob[:MANIFEST_SIZE])
    signature = blob[MANIFEST_SIZE:MANIFEST_SIZE + 64]
    firmware = blob[MANIFEST_SIZE + 64:]
    return VendorRelease(manifest=manifest, vendor_signature=signature,
                         firmware=firmware)


def cmd_prepare(args: argparse.Namespace) -> int:
    release = _load_release(args.release)
    identity = SigningIdentity("update-server",
                               _load_private(args.server_key))
    token = DeviceToken(device_id=args.device_id, nonce=args.nonce,
                        current_version=args.current_version)

    payload = release.firmware
    payload_kind = PayloadKind.FULL
    old_version = 0
    if args.current_version and args.old_firmware:
        old = _read(args.old_firmware)
        delta = lzss_compress(bsdiff_diff(old, release.firmware))
        if len(delta) < len(release.firmware):
            payload = delta
            payload_kind = PayloadKind.DELTA_LZSS
            old_version = args.current_version

    manifest = release.manifest.bind_token(
        token, payload_kind=payload_kind, payload_size=len(payload),
        old_version=old_version)
    envelope = SignedManifest(
        manifest=manifest,
        vendor_signature=release.vendor_signature,
        server_signature=identity.sign(
            manifest.pack() + release.vendor_signature),
    )
    image = UpdateImage(envelope=envelope, payload=payload)
    _write(args.out, image.pack())
    kind = "delta" if manifest.is_delta else "full"
    print("image for device 0x%08X nonce 0x%08X: %s payload, %d bytes"
          % (args.device_id, args.nonce, kind, image.total_size))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    image = UpdateImage.unpack(_read(args.image))
    anchors = TrustAnchors(vendor=_load_public(args.vendor_pub),
                           server=_load_public(args.server_pub))
    verifier = Verifier(anchors, get_backend("tinycrypt"))
    try:
        verifier.verify_signatures(image.envelope)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print("INVALID: %s" % exc)
        return 1
    print("OK: both signatures verify (version %d, %s payload)"
          % (image.manifest.version,
             "delta" if image.manifest.is_delta else "full"))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one simulated update end to end and print the breakdown."""
    from ..platform import get_board, get_os
    from ..sim import Testbed
    from ..workload import FirmwareGenerator

    generator = FirmwareGenerator(seed=args.seed.encode("utf-8"))
    base = generator.firmware(args.size, image_id=1)
    testbed = Testbed.create(
        board=get_board(args.board),
        os_profile=get_os(args.os),
        crypto_library=args.crypto,
        slot_configuration=args.slots,
        initial_firmware=base,
        supports_differential=not args.full,
    )
    new = generator.os_version_change(base, revision=2)
    testbed.release(new, 2)
    outcome = (testbed.push_update() if args.transport == "push"
               else testbed.pull_update())
    if not outcome.success:
        print("update FAILED: %s" % outcome.error)
        return 1
    print("booted version %d on %s/%s (%s, %s slots, %s)"
          % (outcome.booted_version, args.board, args.os, args.crypto,
             "A/B" if args.slots == "a" else "static", args.transport))
    print("bytes over air : %d (image: %d)"
          % (outcome.bytes_over_air, len(new)))
    print("total time     : %.1f s" % outcome.total_seconds)
    for phase in ("propagation", "verification", "loading"):
        seconds = outcome.phases.get(phase, 0.0)
        print("  %-13s: %7.2f s  (%4.1f%%)"
              % (phase, seconds, 100 * seconds / outcome.total_seconds))
    print("energy         : %.1f mJ" % outcome.total_energy_mj)
    for component, energy in sorted(outcome.energy_mj.items()):
        print("  %-13s: %7.1f mJ" % (component, energy))
    return 0


def cmd_export_suit(args: argparse.Namespace) -> int:
    """Export a vendor release as a signed IETF SUIT envelope."""
    from ..suit import export_release

    release = _load_release(args.release)
    key = _load_private(args.vendor_key)
    blob = export_release(release, key)
    _write(args.out, blob)
    print("SUIT envelope for v%d: %d bytes of CBOR"
          % (release.version, len(blob)))
    return 0


def cmd_import_suit(args: argparse.Namespace) -> int:
    """Verify a SUIT envelope and print the recovered UpKit manifest."""
    from ..suit import SuitEnvelope, SuitError, suit_to_upkit

    try:
        envelope = SuitEnvelope.from_cbor(_read(args.envelope))
    except SuitError as exc:
        print("INVALID: %s" % exc)
        return 1
    if not envelope.verify(_load_public(args.vendor_pub)):
        print("INVALID: COSE signature does not verify")
        return 1
    try:
        manifest = suit_to_upkit(envelope.manifest)
    except ValueError as exc:
        print("INVALID: %s" % exc)
        return 1
    print(json.dumps({
        "sequence_number": envelope.manifest.sequence_number,
        "version": manifest.version,
        "size": manifest.size,
        "digest": manifest.digest.hex(),
        "app_id": "0x%08X" % manifest.app_id,
        "link_offset": "0x%08X" % manifest.link_offset,
    }, indent=2))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the fleet performance harness; write BENCH_fleet.json.

    With ``--baseline``, gate the fresh run against a previous bench
    artifact: exit status 1 when any engine configuration's campaign
    wall-clock, or a ``delta_generation`` timing, regressed by more
    than ``--tolerance`` (default +20 %).  ``--delta-out`` additionally
    runs the delta fast-path benchmark and writes its artifact
    (BENCH_delta.json by convention).  ``--devices`` sizes the
    campaigns both engines run.
    """
    from . import bench, report as report_mod

    results = bench.run_all(device_count=args.devices,
                            image_size=args.image_size)
    path = bench.write_results(results, args.out)
    print(bench.format_summary(results))
    print("wrote %s" % path)
    if args.delta_out is not None:
        delta_results = bench.run_delta(image_size=args.delta_size)
        delta_path = bench.write_delta_results(delta_results, args.delta_out)
        print(bench.format_delta_summary(delta_results))
        print("wrote %s" % delta_path)
    if args.baseline is None:
        return 0
    try:
        kind, _version, baseline = report_mod.load_report(args.baseline)
    except (report_mod.ReportError, OSError, ValueError) as exc:
        print("baseline %s: UNUSABLE (%s)" % (args.baseline, exc))
        return 1
    if kind != "bench":
        print("baseline %s is a %r report, not bench"
              % (args.baseline, kind))
        return 1
    problems = bench.compare_to_baseline(results, baseline,
                                         tolerance=args.tolerance)
    for problem in problems:
        print("REGRESSION: %s" % problem)
    if not problems:
        print("within %.0f%% of baseline %s"
              % (100.0 * args.tolerance, args.baseline))
    return 1 if problems else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the fault-injection sweep; write CHAOS_report.json.

    ``--correlated`` additionally runs the correlated fleet sweep
    (fault domains x storm severity x coordinator kills) and embeds its
    section in the same artifact (schema v4).  Exit status 1 when any
    fault point bricked a device, when the correlated sweep bricked a
    fleet member, or when a coordinator-kill resume diverged from its
    uninterrupted twin.
    """
    from . import chaos

    def progress(done: int, total: int, result) -> None:
        if args.verbose:
            print("[%3d/%3d] %-28s %s"
                  % (done, total, result.point.label, result.status))

    report = chaos.run_sweep(points=args.points, seed=args.seed,
                             slot_configuration=args.slots,
                             transport=args.transport,
                             image_size=args.image_size,
                             progress=progress)
    failed = bool(report.bricked)
    print(chaos.format_summary(report))

    if args.correlated:
        def corr_progress(done: int, total: int, result) -> None:
            if args.verbose:
                print("[%3d/%3d] %-28s amp=%.2fx bricked=%d"
                      % (done, total, result.point.label,
                         result.amplification, result.bricked))

        grid = None
        if args.domains is not None:
            grid = chaos.build_correlated_grid(
                domain_counts=(args.domains,))
        if args.grid is not None:
            grid = (grid if grid is not None
                    else chaos.build_correlated_grid())[:args.grid]
        correlated = chaos.run_correlated_sweep(
            devices=args.devices, seed=args.seed, grid=grid,
            progress=corr_progress)
        report.correlated = correlated.to_dict()
        print(chaos.format_correlated_summary(correlated))
        failed = failed or bool(correlated.bricked_total) \
            or not correlated.resume_identical_all

    path = chaos.write_report(report, args.out)
    print("wrote %s" % path)
    return 1 if failed else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run traced updates and write a Chrome-trace artifact."""
    from . import trace

    slot_configurations = (("a", "b") if args.slots == "both"
                           else (args.slots,))
    document = trace.run_trace(slot_configurations=slot_configurations,
                               transport=args.transport,
                               image_size=args.image_size)
    path = trace.write_trace(document, args.out)
    print(trace.format_summary(document))
    print("wrote %s (load it in chrome://tracing or ui.perfetto.dev)"
          % path)
    return 0


def cmd_fleetview(args: argparse.Namespace) -> int:
    """Run an instrumented campaign under the fleet telemetry plane.

    Writes the schema-versioned ``fleetview`` JSON artifact plus an
    OpenMetrics text file of every device registry.  Exit status 1 when
    any SLO breached — the summary names the breach and the action it
    forced on the rollout.
    """
    from ..obs.slo import SLO, Action
    from . import fleetview

    slos = (
        SLO("update-time-p95", "p95_update_seconds", args.slo_p95,
            Action.PAUSE),
        SLO("failure-rate", "failure_rate", args.slo_failure_rate,
            Action.ABORT),
        SLO("energy-per-update", "max_energy_mj", args.slo_energy,
            Action.SLOW),
    )
    result = fleetview.run_fleetview(device_count=args.devices,
                                     image_size=args.image_size,
                                     slos=slos)
    fleetview.write_artifacts(result, args.out, args.metrics_out)
    print(fleetview.format_summary(result))
    print("wrote %s and %s" % (args.out, args.metrics_out))
    return 1 if result.telemetry.breached else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the fleet API server (HTTP face) until interrupted.

    Stands up one :class:`~repro.serve.service.FleetService` with the
    demo release channels seeded, journaling network-created campaigns
    under ``--journal-dir`` so a killed server resumes them
    byte-identically (``POST /campaigns/{name}/resume``).  With
    ``--access-log`` every request is appended to a JSON-lines file
    (route, status, bytes, duration, trace_id).
    """
    import asyncio

    from ..serve import FleetService, HttpServer, ServeTelemetry

    service = FleetService(journal_dir=args.journal_dir,
                           chunk_size=args.chunk_size)
    service.seed_channels(image_size=args.image_size)
    telemetry = ServeTelemetry(service.metrics,
                               access_log_path=args.access_log)

    async def run() -> None:
        async with HttpServer(service, host=args.host, port=args.port,
                              telemetry=telemetry) as server:
            print("upkit serve: http://%s:%d (channels: %s)"
                  % (args.host, server.port,
                     ", ".join(sorted(service.channels))))
            if args.journal_dir:
                print("campaign WAL dir: %s" % args.journal_dir)
            if args.access_log:
                print("access log: %s" % args.access_log)
            try:
                await asyncio.Event().wait()
            except asyncio.CancelledError:
                pass

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("upkit serve: shutting down")
    finally:
        telemetry.close()
    return 0


def cmd_swarm(args: argparse.Namespace) -> int:
    """Swarm-bench the fleet API server; write BENCH_server.json.

    Self-hosts a server in-process and drives ``--sessions`` full
    register → token → manifest → chunked download → report flows
    against it, recording per-endpoint p50/p99, req/s and peak RSS
    (bench schema v5).  Exit status 1 when any session failed, or —
    with ``--baseline`` — when p99/RSS grew or req/s dropped by more
    than ``--tolerance`` against a previous artifact.

    With ``--trace`` the swarm runs twice — tracing off for the gated
    numbers, then on — writing one merged device+server Chrome-trace
    (``--trace-out``, trace schema v2) and a ``trace_overhead`` block
    into the bench artifact; the run fails when tracing-on costs more
    than ``--trace-budget`` of req/s.

    With ``--profile`` a server-traced re-run is aggregated into a
    ``server.profile`` block: per endpoint class, where the
    milliseconds went (parse / signer-pool queue wait / sign /
    serialize / socket write).  The gated numbers stay from the
    untraced run.
    """
    from . import bench, report as report_mod, swarm

    trace_problems: list = []
    trace_path = None
    if args.trace:
        results, trace_doc = swarm.run_traced_benchmark(
            sessions=args.sessions, concurrency=args.concurrency,
            image_size=args.image_size, chunk_bytes=args.chunk_bytes)
        trace_path = report_mod.write_report(trace_doc, args.trace_out,
                                             "trace")
        trace_problems = swarm.trace_overhead_problems(
            results.get("server", {}), budget=args.trace_budget)
        if args.profile:
            results["server"]["profile"] = swarm.profile_section(
                sessions=args.sessions, concurrency=args.concurrency,
                image_size=args.image_size,
                chunk_bytes=args.chunk_bytes)
    elif args.profile:
        results = swarm.run_profiled_benchmark(
            sessions=args.sessions, concurrency=args.concurrency,
            image_size=args.image_size, chunk_bytes=args.chunk_bytes)
    else:
        results = swarm.run_benchmark(sessions=args.sessions,
                                      concurrency=args.concurrency,
                                      image_size=args.image_size,
                                      chunk_bytes=args.chunk_bytes)
    path = swarm.write_results(results, args.out)
    print(swarm.format_summary(results))
    print("wrote %s" % path)
    if trace_path is not None:
        print("wrote %s" % trace_path)
    server = results.get("server", {})
    failed = server.get("failed_sessions", 0)
    if failed:
        for failure in server.get("failures", []):
            print("FAILED: %s" % failure)
        print("%d of %d sessions failed" % (failed,
                                            server.get("sessions", 0)))
        return 1
    for problem in trace_problems:
        print("TRACE OVERHEAD: %s" % problem)
    if trace_problems:
        return 1
    if args.baseline is None:
        return 0
    try:
        kind, _version, baseline = report_mod.load_report(args.baseline)
    except (report_mod.ReportError, OSError, ValueError) as exc:
        print("baseline %s: UNUSABLE (%s)" % (args.baseline, exc))
        return 1
    if kind != "bench":
        print("baseline %s is a %r report, not bench"
              % (args.baseline, kind))
        return 1
    problems = bench.compare_to_baseline(results, baseline,
                                         tolerance=args.tolerance)
    for problem in problems:
        print("REGRESSION: %s" % problem)
    if not problems:
        print("within %.0f%% of baseline %s"
              % (100.0 * args.tolerance, args.baseline))
    return 1 if problems else 0


def cmd_report(args: argparse.Namespace) -> int:
    """Inspect (and optionally validate) schema-stamped JSON artifacts.

    With ``--validate``, exit status 1 when any artifact fails its
    kind's schema checks — this is the CI guard against silent drift.
    """
    from . import report as report_mod

    drifted = False
    for path in args.paths:
        try:
            kind, version, _data = report_mod.load_report(path)
        except (report_mod.ReportError, OSError, ValueError) as exc:
            print("%s: UNRECOGNISED (%s)" % (path, exc))
            drifted = True
            continue
        current = report_mod.SCHEMA_VERSIONS.get(kind)
        print("%s: %s report, schema v%d (current: v%s)"
              % (path, kind, version, current))
        if args.validate:
            problems = report_mod.validate_file(path)
            for problem in problems:
                print("  DRIFT: %s" % problem)
            if problems:
                drifted = True
            else:
                print("  ok")
    return 1 if drifted else 0


def cmd_inspect(args: argparse.Namespace) -> int:
    image = UpdateImage.unpack(_read(args.image))
    manifest = image.manifest
    print(json.dumps({
        "version": manifest.version,
        "old_version": manifest.old_version,
        "device_id": "0x%08X" % manifest.device_id,
        "nonce": "0x%08X" % manifest.nonce,
        "size": manifest.size,
        "payload_size": manifest.payload_size,
        "payload_kind": manifest.payload_kind,
        "is_delta": manifest.is_delta,
        "link_offset": "0x%08X" % manifest.link_offset,
        "app_id": "0x%08X" % manifest.app_id,
        "digest": manifest.digest.hex(),
    }, indent=2))
    return 0


# -- argument parsing ---------------------------------------------------------------


def _hex_int(text: str) -> int:
    return int(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upkit", description="UpKit update-generation tooling")
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="generate vendor + server keys")
    keygen.add_argument("--out", required=True)
    keygen.add_argument("--vendor-seed", default="upkit-vendor")
    keygen.add_argument("--server-seed", default="upkit-server")
    keygen.set_defaults(func=cmd_keygen)

    release = sub.add_parser("release", help="sign a vendor release")
    release.add_argument("--firmware", required=True)
    release.add_argument("--version", type=int, required=True)
    release.add_argument("--app-id", type=_hex_int, required=True)
    release.add_argument("--link-offset", type=_hex_int, required=True)
    release.add_argument("--vendor-key", required=True)
    release.add_argument("--out", required=True)
    release.set_defaults(func=cmd_release)

    prepare = sub.add_parser(
        "prepare", help="bind a release to a device token and double-sign")
    prepare.add_argument("--release", required=True)
    prepare.add_argument("--server-key", required=True)
    prepare.add_argument("--device-id", type=_hex_int, required=True)
    prepare.add_argument("--nonce", type=_hex_int, required=True)
    prepare.add_argument("--current-version", type=int, default=0)
    prepare.add_argument("--old-firmware", default=None)
    prepare.add_argument("--out", required=True)
    prepare.set_defaults(func=cmd_prepare)

    verify = sub.add_parser("verify", help="verify an update image")
    verify.add_argument("--image", required=True)
    verify.add_argument("--vendor-pub", required=True)
    verify.add_argument("--server-pub", required=True)
    verify.set_defaults(func=cmd_verify)

    inspect = sub.add_parser("inspect", help="print an image's manifest")
    inspect.add_argument("--image", required=True)
    inspect.set_defaults(func=cmd_inspect)

    export_suit = sub.add_parser(
        "export-suit", help="export a release as an IETF SUIT envelope")
    export_suit.add_argument("--release", required=True)
    export_suit.add_argument("--vendor-key", required=True)
    export_suit.add_argument("--out", required=True)
    export_suit.set_defaults(func=cmd_export_suit)

    import_suit = sub.add_parser(
        "import-suit", help="verify a SUIT envelope and print its manifest")
    import_suit.add_argument("--envelope", required=True)
    import_suit.add_argument("--vendor-pub", required=True)
    import_suit.set_defaults(func=cmd_import_suit)

    simulate = sub.add_parser(
        "simulate", help="run one simulated update and print its cost")
    simulate.add_argument("--board", default="nrf52840",
                          choices=("nrf52840", "cc2650", "cc2538"))
    simulate.add_argument("--os", default="zephyr",
                          choices=("zephyr", "riot", "contiki"))
    simulate.add_argument("--crypto", default="tinycrypt",
                          choices=("tinydtls", "tinycrypt",
                                   "cryptoauthlib"))
    simulate.add_argument("--slots", default="a", choices=("a", "b"))
    simulate.add_argument("--transport", default="push",
                          choices=("push", "pull"))
    simulate.add_argument("--size", type=int, default=64 * 1024)
    simulate.add_argument("--full", action="store_true",
                          help="force a full-image update (no delta)")
    simulate.add_argument("--seed", default="upkit-simulate")
    simulate.set_defaults(func=cmd_simulate)

    bench = sub.add_parser(
        "bench", help="run the fleet performance benchmark harness")
    bench.add_argument("--devices", type=int, default=50,
                       help="fleet size of the benchmark campaign "
                            "(default: 50)")
    bench.add_argument("--image-size", type=int, default=24 * 1024,
                       help="firmware image size in bytes (default: 24576)")
    bench.add_argument("--out", default="BENCH_fleet.json",
                       help="result file (default: ./BENCH_fleet.json)")
    bench.add_argument("--baseline", default=None,
                       help="previous bench artifact to regression-gate "
                            "against (exit 1 on >tolerance slowdown)")
    bench.add_argument("--tolerance", type=float, default=0.20,
                       help="allowed fractional slowdown vs baseline "
                            "(default: 0.20)")
    bench.add_argument("--delta-out", default=None,
                       help="also run the delta fast-path benchmark and "
                            "write its artifact here (e.g. "
                            "BENCH_delta.json)")
    bench.add_argument("--delta-size", type=int, default=96 * 1024,
                       help="firmware size for the delta fast-path "
                            "benchmark (default: 98304)")
    bench.set_defaults(func=cmd_bench)

    chaos = sub.add_parser(
        "chaos", help="run the fault-injection anti-bricking sweep")
    chaos.add_argument("--points", type=int, default=216,
                       help="fault grid size (default: 216)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="sweep seed (links, jitter; default: 0)")
    chaos.add_argument("--slots", default="b", choices=("a", "b"),
                       help="slot configuration under test (default: b)")
    chaos.add_argument("--transport", default="push",
                       choices=("push", "pull"))
    chaos.add_argument("--image-size", type=int, default=16 * 1024,
                       help="firmware image size in bytes (default: 16384)")
    chaos.add_argument("--verbose", action="store_true",
                       help="print each fault point as it completes")
    chaos.add_argument("--correlated", action="store_true",
                       help="additionally run the correlated fleet "
                            "sweep (fault domains x storm severity x "
                            "coordinator kills)")
    chaos.add_argument("--devices", type=int, default=12,
                       help="fleet size for --correlated (default: 12)")
    chaos.add_argument("--domains", type=int, default=None,
                       help="fix the correlated grid to one fault-"
                            "domain count (default: sweep 2 and 3)")
    chaos.add_argument("--grid", type=int, default=None,
                       help="cap the correlated grid to its first N "
                            "points (default: the full 72-point grid)")
    chaos.add_argument("--out", default="CHAOS_report.json",
                       help="report file (default: ./CHAOS_report.json)")
    chaos.set_defaults(func=cmd_chaos)

    trace = sub.add_parser(
        "trace", help="run traced updates and emit Chrome-trace JSON")
    trace.add_argument("--slots", default="both",
                       choices=("a", "b", "both"),
                       help="slot configuration(s) to trace "
                            "(default: both)")
    trace.add_argument("--transport", default="push",
                       choices=("push", "pull"))
    trace.add_argument("--image-size", type=int, default=16 * 1024,
                       help="firmware image size in bytes (default: 16384)")
    trace.add_argument("--out", default="trace.json",
                       help="trace artifact (default: ./trace.json)")
    trace.set_defaults(func=cmd_trace)

    fleetview = sub.add_parser(
        "fleetview",
        help="run an instrumented campaign with the telemetry plane")
    fleetview.add_argument("--devices", type=int, default=50,
                           help="campaign fleet size (default: 50)")
    fleetview.add_argument("--image-size", type=int, default=24 * 1024,
                           help="firmware image size in bytes "
                                "(default: 24576)")
    fleetview.add_argument("--slo-p95", type=float, default=600.0,
                           help="SLO: p95 update seconds; breach pauses "
                                "the rollout (default: 600)")
    fleetview.add_argument("--slo-failure-rate", type=float, default=0.2,
                           help="SLO: max wave failure rate; breach "
                                "aborts (default: 0.2)")
    fleetview.add_argument("--slo-energy", type=float, default=10000.0,
                           help="SLO: max per-update energy in mJ; "
                                "breach slows the rollout "
                                "(default: 10000)")
    fleetview.add_argument("--out", default="FLEET_telemetry.json",
                           help="JSON artifact "
                                "(default: ./FLEET_telemetry.json)")
    fleetview.add_argument("--metrics-out", default="FLEET_metrics.prom",
                           help="OpenMetrics text file "
                                "(default: ./FLEET_metrics.prom)")
    fleetview.set_defaults(func=cmd_fleetview)

    serve = sub.add_parser(
        "serve", help="run the fleet API server (HTTP face)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8777)
    serve.add_argument("--chunk-size", type=int, default=2048,
                       help="advertised image chunk size (bytes)")
    serve.add_argument("--image-size", type=int, default=8 * 1024,
                       help="demo channel firmware size (bytes)")
    serve.add_argument("--access-log", default=None,
                       help="append one JSON line per request "
                            "(route, status, bytes, duration, trace_id)")
    serve.add_argument("--journal-dir", default=None,
                       help="directory for campaign WALs + specs "
                            "(enables kill-and-resume)")
    serve.set_defaults(func=cmd_serve)

    swarm = sub.add_parser(
        "swarm", help="swarm-bench the fleet API server")
    swarm.add_argument("--sessions", type=int, default=1000,
                       help="concurrent device sessions to drive")
    swarm.add_argument("--concurrency", type=int, default=256,
                       help="simultaneous open connections")
    swarm.add_argument("--image-size", type=int, default=8 * 1024)
    swarm.add_argument("--chunk-bytes", type=int, default=2048,
                       help="ranged-download chunk size")
    swarm.add_argument("--out", default="BENCH_server.json")
    swarm.add_argument("--baseline", default=None,
                       help="bench artifact to regression-gate "
                            "against (exit 1 on regression)")
    swarm.add_argument("--tolerance", type=float, default=0.20)
    swarm.add_argument("--trace", action="store_true",
                       help="also run with distributed tracing on and "
                            "write a merged device+server Chrome trace")
    swarm.add_argument("--trace-out", default="SWARM_trace.json")
    swarm.add_argument("--profile", action="store_true",
                       help="re-run with the server tracer on and "
                            "write a per-endpoint phase breakdown "
                            "(queue wait/sign/serialize/write) into "
                            "the artifact")
    swarm.add_argument("--trace-budget", type=float, default=0.15,
                       help="max fraction of req/s tracing may cost "
                            "before the run fails")
    swarm.set_defaults(func=cmd_swarm)

    report = sub.add_parser(
        "report", help="inspect/validate schema-stamped JSON artifacts")
    report.add_argument("paths", nargs="+",
                        help="artifact files (bench/chaos/trace JSON)")
    report.add_argument("--validate", action="store_true",
                        help="run schema validation; exit 1 on drift")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
