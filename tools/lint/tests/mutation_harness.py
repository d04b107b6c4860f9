#!/usr/bin/env python3
"""Mutation tests for the tempest_lint lock, protocol and chunk passes.

A checker that never fires is indistinguishable from one that
works; this harness proves the new passes fire by breaking the real
tree in controlled ways and demanding a diagnostic for each break:

  lock      delete one `MutexLock lock(...);` acquisition line from
            an annotated translation unit and lint the mutant pair —
            every deletion that exposes a GUARDED_BY member or a
            REQUIRES call site must produce a [lock] finding.
  protocol  delete every write of one schema key from a paired
            encoder (keys the paired decoder actually reads; skip-
            listed routing keys cannot produce a schema diff), and
            separately delete single serializer calls from the blob
            codec writer — each mutation must produce a [protocol]
            finding.
  chunks    in every checkpoint serializer (each function that
            writes through a StateWriter&: saveState methods,
            saveActivity, the saveCheckpoint chunk writes), delete
            one line holding a serializer call, a chunk() or a call
            the writer is handed to, and lint the tree in-process
            against the committed chunk registry — each deletion
            must produce a [chunks] finding, since the format
            changed without a kCheckpointVersion bump.

Gates: >= 95% of lock mutations caught (the one tolerated survivor
is the stopMutex_ acquisition in ServeDaemon::waitStopped, which
guards a condition-variable handshake and no data — there is
nothing for the checker to see), 100% of protocol and chunk
mutations caught.

src/sim/runner.cc is not a lock target: its two progress mutexes
are function-locals serializing stdout writes, with no guarded
members for a deletion to expose.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
LINT_DIR = os.path.abspath(os.path.join(HERE, ".."))
LINT = os.path.join(LINT_DIR, "tempest_lint.py")
ROOT = os.path.abspath(os.path.join(HERE, "..", "..", ".."))

sys.path.insert(0, LINT_DIR)
import tempest_lint as TL  # noqa: E402

# (.cc with acquisitions, header with the GUARDED_BY declarations)
LOCK_TARGETS = [
    ("src/serve/result_cache.cc", "src/serve/result_cache.hh"),
    ("src/serve/server.cc", "src/serve/server.hh"),
    ("src/serve/throttler.cc", "src/serve/throttler.hh"),
    ("src/serve/warm_pool.cc", "src/serve/warm_pool.hh"),
]

PROTO_TARGETS = [
    "src/serve/protocol.cc",
    "src/sim/fabric/fabric_protocol.cc",
]

ACQUIRE_RE = re.compile(r"^\s*MutexLock\s+\w+\(.*\);\s*$")
LOCK_GATE = 0.95


def run_lint(args):
    return subprocess.run(
        [sys.executable, LINT, "--backend", "text", "--root", ROOT]
        + args, capture_output=True, text=True)


def read_lines(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read().split("\n")


def write_mutant(tmp, name, lines, dropped):
    out = os.path.join(tmp, name)
    with open(out, "w", encoding="utf-8") as f:
        f.write("\n".join(l for i, l in enumerate(lines, start=1)
                          if i not in dropped))
    return out


def mutate_locks(tmp):
    caught, survivors, total = 0, [], 0
    for cc_rel, hh_rel in LOCK_TARGETS:
        cc = os.path.join(ROOT, cc_rel)
        hh = os.path.join(ROOT, hh_rel)
        lines = read_lines(cc)
        shutil.copy(hh, os.path.join(tmp, os.path.basename(hh)))
        sites = [i for i, l in enumerate(lines, start=1)
                 if ACQUIRE_RE.match(l)]
        for site in sites:
            total += 1
            mutant = write_mutant(tmp, os.path.basename(cc), lines,
                                  {site})
            r = run_lint(["--lock", mutant,
                          os.path.join(tmp, os.path.basename(hh))])
            if r.returncode == 1 and "[lock]" in r.stdout:
                caught += 1
            else:
                survivors.append("%s:%d: %s"
                                 % (cc_rel, site, lines[site - 1].strip()))
    return caught, total, survivors


def proto_pairs(path):
    cache = TL.FileCache()
    toks, _ann = cache.get_tokens(path)
    funcs = TL.collect_proto_functions(path, toks)
    lines = cache.get_scrubbed_keep_strings(path).split("\n")
    pairs = []
    for name in sorted(funcs):
        if not name.startswith("encode"):
            continue
        suffix = name[len("encode"):]
        dec = funcs.get("parse" + suffix) or \
            funcs.get("decode" + suffix)
        if dec is not None:
            pairs.append((funcs[name], dec))
    return pairs, lines


def mutate_protocol(tmp):
    caught, survivors, total = 0, [], 0
    for rel in PROTO_TARGETS:
        path = os.path.join(ROOT, rel)
        src_lines = read_lines(path)
        pairs, scrub_lines = proto_pairs(path)
        for enc, dec in pairs:
            enc_text = "\n".join(
                scrub_lines[enc.start_line - 1:enc.end_line])
            dec_text = "\n".join(
                scrub_lines[dec.start_line - 1:dec.end_line])
            writes = TL._ordered_unique(
                TL.PROTO_WRITE_RE.findall(enc_text))
            reads = set(TL.PROTO_READ_RE.findall(dec_text))
            for key in writes:
                if key not in reads:
                    continue  # skip-listed routing key: no diff
                key_re = re.compile(r'\[\s*"%s"\s*\]\s*='
                                    % re.escape(key))
                dropped = {
                    i for i in range(enc.start_line,
                                     enc.end_line + 1)
                    if key_re.search(scrub_lines[i - 1])}
                total += 1
                mutant = write_mutant(tmp, os.path.basename(path),
                                      src_lines, dropped)
                r = run_lint(["--protocol", mutant])
                if r.returncode == 1 and "[protocol]" in r.stdout:
                    caught += 1
                else:
                    survivors.append("%s: %s key '%s'"
                                     % (rel, enc.name, key))
            # Blob codec: drop one writer-side serializer call.
            for method, line in TL._codec_sequence(enc.toks):
                total += 1
                mutant = write_mutant(tmp, os.path.basename(path),
                                      src_lines, {line})
                r = run_lint(["--protocol", mutant])
                if r.returncode == 1 and "[protocol]" in r.stdout:
                    caught += 1
                else:
                    survivors.append("%s: %s %s() at line %d"
                                     % (rel, enc.name, method, line))
    return caught, total, survivors


def mutate_chunks():
    files = TL.collect_files(ROOT, [])
    registry = os.path.join(LINT_DIR, "chunk_registry.json")
    cache = TL.FileCache()
    caught, survivors, total = 0, [], 0
    serializers = TL.collect_serializers(files, cache)
    for name in sorted(serializers):
        path, _line, entries = serializers[name]
        original = cache.get_raw(path)
        lines = original.split("\n")
        for site in sorted({ln for _entry, ln in entries}):
            total += 1
            cache.override(path, "\n".join(
                l for i, l in enumerate(lines, start=1) if i != site))
            findings = []
            TL.check_chunks(files, cache, registry, ROOT, True,
                            findings)
            if any(f[2] == "chunks" for f in findings):
                caught += 1
            else:
                survivors.append("%s: %s line %d: %s"
                                 % (os.path.relpath(path, ROOT), name,
                                    site, lines[site - 1].strip()))
        cache.override(path, original)
    return caught, total, survivors


def main():
    tmp = tempfile.mkdtemp(prefix="tempest_lint_mut_")
    try:
        lock_caught, lock_total, lock_miss = mutate_locks(tmp)
        proto_caught, proto_total, proto_miss = mutate_protocol(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    chunk_caught, chunk_total, chunk_miss = mutate_chunks()

    lock_ratio = lock_caught / lock_total if lock_total else 0.0
    proto_ratio = proto_caught / proto_total if proto_total else 0.0
    print("mutation_harness: lock %d/%d caught (%.1f%%)"
          % (lock_caught, lock_total, 100.0 * lock_ratio))
    for s in lock_miss:
        print("  survivor: " + s)
    print("mutation_harness: protocol %d/%d caught (%.1f%%)"
          % (proto_caught, proto_total, 100.0 * proto_ratio))
    for s in proto_miss:
        print("  survivor: " + s)

    print("mutation_harness: chunks %d/%d caught"
          % (chunk_caught, chunk_total))
    for s in chunk_miss:
        print("  survivor: " + s)

    ok = True
    if lock_total == 0 or lock_ratio < LOCK_GATE:
        print("FAIL: lock mutation catch rate below %.0f%%"
              % (100.0 * LOCK_GATE))
        ok = False
    if proto_total == 0 or proto_caught != proto_total:
        print("FAIL: protocol mutations must all be caught")
        ok = False
    if chunk_total == 0 or chunk_caught != chunk_total:
        print("FAIL: chunk mutations must all be caught")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
