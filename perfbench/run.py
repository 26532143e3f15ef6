"""The irdl-opt benchmark: one command per workload run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout.  It builds irdl-opt and the
benchmark's in-process runner (perfbench/layers.ml) with dune, generates
the workload's inputs from the seed (perfbench/gen.py), and then:

  --trace 0  runs the real irdl-opt binary with tracing off and reports the
             end-to-end metrics: setup_s, ops_per_s, requests_per_s,
             latency_p50_ms, latency_p99_ms and peak_rss_mb;
  --trace 1  sends the same inputs in-process through each layer's public
             functions with a span recorder on, once more with it off, and
             reports the per-layer metrics and the tracing overhead; the
             spans go to perfbench/results/<workload>-seed<n>-trace1-spans.json.

Every verdict and output is checked against the generator's answers
(perfbench/oracle.py).  Human-readable lines go first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  A full run records its result, with the machine it
ran on, under perfbench/results/; a --smoke run (a few invocations or
requests, leaving out the percentiles that lack samples) writes under
perfbench/results/smoke/ instead, so it never overwrites a full-size
result.

Workloads (see ROADMAP's layer-by-layer benchmark):
  text_roundtrip   irdl-opt --batch over corpus-shaped text documents with
                   unique attribute names, verified and pretty-printed:
                   the default user path (text parser and printer).
  bytecode_verify  the same generator's documents, encoded to bytecode
                   before timing, with --verify-only; a tenth break a
                   constraint: the bytecode reader and the verifier, and
                   the no-change control for parser and printer work.
  nested_attrs     --verify-only over ops whose attribute and type
                   parameters nest d and 4d deep: the cost of interning
                   nested values, which grows with the square of depth.
  server_mixed     irdl-opt --listen (one worker) driven by two closed-loop
                   connections replaying a fixed pool of documents as
                   verify, print, emit-bytecode, bytecode-input verify and
                   failing requests: the wire protocol, server dispatch
                   and warm caches.

One-shot latency is per document: the time from irdl-opt opening one
document of the batch to opening the next, observed with inotify, so it
excludes process set-up.  Server latency is per request, from the client
sending it until the whole response has arrived.
"""

import argparse
import ctypes
import json
import os
import platform
import select
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
from stats import percentile  # noqa: E402

IRDL_OPT = os.path.abspath(os.path.join("_build", "default", "bin", "irdl_opt.exe"))
LAYERS = os.path.abspath(os.path.join("_build", "default", "perfbench", "layers.exe"))
# Set-ups per run.  Each is pinned to the next CPU in turn, like every
# other measured part (see place), and setup_s is their upper quartile:
# the median of the slower CPU's set-ups when one CPU runs slower than
# the other, where the median of all of them would fall in the gap.
SETUP_SAMPLES = 101
# A run's work is fixed by --seconds, sized to last about that long on a
# 2-core reference machine, so every run of a seed does the same work.
INVOCATION_S = 0.5  # one one-shot invocation (one batch of documents)
MIN_INVOCATIONS = 40  # quartiles over invocations need ten beyond them
SERVER_REQUESTS_PER_S = 110
MIN_PASSES = 40  # server_mixed: passes over its request list, one window each
SMOKE_INVOCATIONS = SMOKE_PASSES = 4
TRACE_SERVER_PASSES = 5
SMOKE = False


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


# ---------------------------------------------------------------- setup


def check_checkout():
    for need in ("dune-project", os.path.join("bin", "irdl_opt.ml"), "lib"):
        if not os.path.exists(need):
            fail("run from the root of an irdl source checkout (%s is missing)" % need)


def build():
    r = subprocess.run(["dune", "build", "--root", ".", "./bin/irdl_opt.exe", "./perfbench/layers.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        fail("build failed:\n" + r.stdout, 3)


def machine():
    def cmd(args):
        try:
            return subprocess.run(args, capture_output=True, text=True, timeout=20).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "ocaml_version": cmd(["ocamlfind", "ocamlopt", "-version"]),
        "commit": cmd(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "unknown",
        "python": platform.python_version(),
    }


CPUS = sorted(os.sched_getaffinity(0))


def place(part, pid=None):
    """Pin the measured process of part [part] to CPU [part] mod nproc and
    this process (the client or the watcher) to the next one.  On a shared
    host one CPU can run the same work up to 1.6x slower than the other
    for a whole run; a process left where the scheduler put it stays on
    one of them, so a run would be all fast or all slow.  Rotating the
    parts over the CPUs gives every run the same share of each, and the
    slow-side figures of run_stats then come from the slower CPU in every
    run.  Returns the CPU for the measured process."""
    cpu = CPUS[part % len(CPUS)]
    os.sched_setaffinity(0, {CPUS[(part + 1) % len(CPUS)]})
    if pid is not None:
        os.sched_setaffinity(pid, {cpu})
    return cpu


def pin(cpu):
    """A preexec_fn that puts the child on [cpu] (None: anywhere)."""
    return None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))


def spawn_wait(args, **kw):
    """Run [args] to completion; return (seconds, exit code, peak RSS MiB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(args, **kw)
    _, status, ru = os.wait4(p.pid, 0)
    dt = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return dt, p.returncode, ru.ru_maxrss / 1024


# ------------------------------------------------------- inotify watcher

IN_OPEN = 0x20


class OpenWatch:
    """Timestamps every open(2) of a file in one directory: irdl-opt
    --batch opens each document just before processing it.  The watcher
    thread blocks until an event arrives, so each is stamped as it comes
    in; events read together share one stamp."""

    def __init__(self, directory):
        libc = ctypes.CDLL(None, use_errno=True)
        self.fd = libc.inotify_init1(os.O_NONBLOCK)
        if self.fd < 0 or libc.inotify_add_watch(self.fd, directory.encode(), IN_OPEN) < 0:
            raise OSError(ctypes.get_errno(), "inotify")
        self.opens = []
        self.done = False
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _drain(self):
        try:
            data = os.read(self.fd, 1 << 16)
        except BlockingIOError:
            return
        now = time.perf_counter()
        off = 0
        while off < len(data):
            _, _, _, n = struct.unpack_from("iIII", data, off)
            name = data[off + 16: off + 16 + n].rstrip(b"\0").decode()
            self.opens.append((now, name))
            off += 16 + n

    def _loop(self):
        while not self.done:
            if select.select([self.fd], [], [], 0.05)[0]:
                self._drain()
        self._drain()

    def stop(self):
        self.done = True
        self.thread.join()
        os.close(self.fd)
        return self.opens


# ---------------------------------------------------------- measurement


def run_stats(rates, parts):
    """The end-to-end figures of one run from its parts (invocations or
    request windows): [rates] their throughputs in ops/s, [parts] their
    latency samples in ms.

    On a shared 2-core host the same part runs up to 1.6x slower or faster
    from one second to the next, as load on the other hardware thread of
    the core comes and goes, and how much of a run is slowed changes from
    run to run.  Figures from a run's slow side move least between runs:
    the lower quartile of part throughput (over ten seeds it spread least
    of the lower quartile, median, upper quartile, mean and harmonic mean
    on every workload), the upper quartile of part median latency, and the
    p99 of the samples of the slower three quarters of the parts."""
    slow = sorted(range(len(rates)), key=lambda i: rates[i])[:max(1, len(rates) * 3 // 4)]
    return {
        "ops_per_s": stat_or_omit(percentile, rates, 25),
        "latency_p50_ms": stat_or_omit(percentile, [percentile(p, 50) for p in parts], 75),
        "latency_p99_ms": stat_or_omit(percentile, [x for i in slow for x in parts[i]], 99),
    }


def stat_or_omit(fn, *args):
    """[fn args], or None (the metric is left out) when a percentile lacks
    samples: only a --smoke run is short enough for that."""
    try:
        return fn(*args)
    except ValueError:
        if SMOKE:
            return None
        raise


# ------------------------------------------------------ one-shot workloads


def one_shot(docs, paths, work, verify_only, invocations):
    setup = [spawn_wait([IRDL_OPT, "--cmath", "--corpus"], stdin=subprocess.DEVNULL,
                        stdout=subprocess.DEVNULL, preexec_fn=pin(place(i)))[0]
             for i in range(SETUP_SAMPLES)]
    listing = os.path.join(work, "batch.txt")
    with open(listing, "w") as f:
        f.write("\n".join(paths) + "\n")
    args = [IRDL_OPT, "--cmath", "--corpus", "--batch", listing] + (["--verify-only"] if verify_only else [])
    docs_dir = os.path.dirname(paths[0])
    index = {os.path.basename(p): i for i, p in enumerate(paths)}
    total_ops = sum(d.n_ops for d in docs)
    rates, doc_rates, rss, parts, outcomes, bad_exit = [], [], [], [], [], 0
    out_path, err_path = os.path.join(work, "out.txt"), os.path.join(work, "err.txt")
    for i in range(invocations):
        cpu = place(i)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            watch = OpenWatch(docs_dir)
            t0 = time.perf_counter()
            wall, code, peak = spawn_wait(args, stdout=out, stderr=err, preexec_fn=pin(cpu))
            t_exit = t0 + wall
            opens = [(t, index[n]) for t, n in watch.stop() if n in index]
        if [d for _, d in opens] != list(range(len(paths))):
            fail("irdl-opt did not open the documents once each, in order")
        # Document i runs from its open to the next one's; the last one's
        # span would include writing the whole batch's output, so it is
        # left out of the latency samples.
        parts.append([(b[0] - a[0]) * 1e3 for a, b in zip(opens, opens[1:])])
        rates.append(total_ops / (t_exit - opens[0][0]))
        doc_rates.append(len(docs) / wall)
        rss.append(peak)
        with open(out_path) as f, open(err_path) as g:
            got, exit_ok = oracle.check_batch(docs, f.read(), g.read(), code, not verify_only)
        outcomes += got
        bad_exit += not exit_ok
    os.sched_setaffinity(0, CPUS)
    metrics = run_stats(rates, parts)
    # ops_per_s counts from the first document's open, so it leaves
    # process set-up out; requests_per_s is the rate a --batch user sees,
    # documents per second from spawn to exit.
    metrics.update({
        "setup_s": percentile(setup, 75),
        "requests_per_s": stat_or_omit(percentile, doc_rates, 25),
        "peak_rss_mb": statistics.median(rss),
    })
    return metrics, {
        "invocations": invocations,
        "latency_samples": sum(map(len, parts)),
        "part_ops_per_s": rates,
        "part_docs_per_s": doc_rates,
        "part_latencies_ms": [[round(x, 3) for x in p] for p in parts],
        "setup_samples_s": setup,
        "attempted": invocations * len(docs),
        "outcomes": outcomes,
        "bad_exit": bad_exit,
    }


# ------------------------------------------------------- server workload

def request_frame(rid, kind, file, payload):
    header = ("id=%d\nkind=%s\nfile=%s\n" % (rid, kind, file)).encode()
    return b"IRQ1" + struct.pack(">II", len(header), len(payload)) + header + payload


def response_size(buf):
    if len(buf) < 16:
        return None
    if buf[:4] != b"IRS1":
        raise ValueError("bad response magic")
    h, d, o = struct.unpack_from(">III", buf, 4)
    return 16 + h + d + o


def parse_response(buf):
    h, d, o = struct.unpack_from(">III", buf, 4)
    header = dict(line.split("=", 1) for line in buf[16:16 + h].decode().splitlines() if "=" in line)
    diags = buf[16 + h:16 + h + d].decode()
    return header, diags, bytes(buf[16 + h + d:16 + h + d + o])


def connect(path, deadline):
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return s
        except OSError:
            s.close()
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.0002)


def call(sock, frame):
    sock.sendall(frame)
    buf = bytearray()
    while True:
        size = response_size(buf)
        if size is not None and len(buf) >= size:
            return parse_response(buf)
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk


class Server:
    """irdl-opt --listen, started and timed until its first ping answer.
    As a context manager it kills the server if it is still running on
    the way out, so no failure leaves a process behind."""

    def __init__(self, work, cpu=None):
        self.path = os.path.join(work, "srv.sock")
        if os.path.exists(self.path):
            os.unlink(self.path)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([IRDL_OPT, "--cmath", "--corpus", "--listen", "srv.sock"], cwd=work,
                                     stdin=subprocess.DEVNULL, preexec_fn=pin(cpu))
        try:
            sock = connect(self.path, t0 + 30)
            call(sock, request_frame(0, "ping", "ping", b""))
        except BaseException:
            self.__exit__()
            raise
        self.setup_s = time.perf_counter() - t0
        sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *_):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()

    def stop(self):
        """Ask for shutdown and reap; returns the peak RSS in MiB."""
        sock = connect(self.path, time.perf_counter() + 10)
        call(sock, request_frame(0, "shutdown", "shutdown", b""))
        sock.close()
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return ru.ru_maxrss / 1024


def payload_of(doc, fmt, work):
    if fmt == "bytecode":
        return read_bytes(os.path.join(work, "bc", doc.name + ".irdlbc"))
    return doc.text.encode()


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def server_requests(requests, work):
    """[(kind, doc, fmt, file, payload, expected output)]: the expected
    output is the exact response output of a request whose answer is ok
    (the document's text for print, its encoding for emit-bytecode, empty
    otherwise), None when the answer is an error."""
    out = []
    for kind, doc, fmt in requests:
        file = doc.name + (".irdlbc" if fmt == "bytecode" else ".mlir")
        ok = doc.status == "ok" or (kind == "parse" and doc.status == "verify_error")
        if not ok:
            expected = None
        elif kind == "print":
            expected = (doc.expected + "\n").encode()
        elif kind == "emit-bytecode":
            expected = read_bytes(os.path.join(work, "bc", doc.name + ".irdlbc"))
        else:
            expected = b""
        out.append((kind, doc, fmt, file, payload_of(doc, fmt, work), expected))
    return out


def server_mixed(requests, passes, work):
    setup = []
    for i in range(SETUP_SAMPLES - 1):
        with Server(work, place(i)) as srv:
            setup.append(srv.setup_s)
            srv.stop()
    reqs = server_requests(requests, work)
    with Server(work, place(SETUP_SAMPLES - 1)) as srv:
        setup.append(srv.setup_s)
        return drive(srv, reqs, passes, setup)


def drive(srv, reqs, passes, setup):
    """Two closed-loop connections replaying [reqs] [passes] times, then a
    graceful shutdown.  Each pass's answers form one window: the same
    work, so windows differ only in how fast the machine ran.  The client only
    compares bytes while the server works (its own CPU use would slow a
    server sharing the core's other hardware thread); responses that
    differ from the expected bytes are classified after the run."""
    conns = [connect(srv.path, time.perf_counter() + 10) for _ in range(2)]
    state = {}  # socket -> [request index, sent time, buffer]
    done = []  # (request index, sent, answered, response bytes or None)
    cursor = 0

    def send(c):
        nonlocal cursor
        i = cursor % len(reqs)
        if i == 0:
            place(cursor // len(reqs), srv.proc.pid)
        cursor += 1
        kind, doc, fmt, file, payload, _ = reqs[i]
        state[c] = [i, time.perf_counter(), bytearray()]
        c.sendall(request_frame(cursor, kind, file, payload))

    poll = select.poll()
    by_fd = {c.fileno(): c for c in conns}
    for c in conns:
        send(c)
        poll.register(c.fileno(), select.POLLIN)
    active = len(conns)
    while active:
        for fd, _ in poll.poll(1000):
            c = by_fd[fd]
            st = state[c]
            chunk = c.recv(1 << 20)
            if not chunk:
                fail("server closed a connection", 4)
            st[2] += chunk
            size = response_size(st[2])
            if size is None or len(st[2]) < size:
                continue
            now = time.perf_counter()
            expected = reqs[st[0]][5]
            h, d, _ = struct.unpack_from(">III", st[2], 4)
            fine = (expected is not None and d == 0 and b"status=ok" in st[2][16:16 + h]
                    and st[2][16 + h:] == expected)
            done.append((st[0], st[1], now, None if fine else bytes(st[2])))
            if cursor < passes * len(reqs):
                send(c)
            else:
                poll.unregister(fd)
                active -= 1
    os.sched_setaffinity(0, CPUS)
    for c in conns:
        c.close()
    rss = srv.stop()
    outcomes = []
    for i, _, _, resp in done:
        kind, doc, _, _, _, expected = reqs[i]
        if resp is None:
            outcomes.append(oracle.OK)
        else:
            header, diags, output = parse_response(resp)
            outcomes.append(oracle.check_response(doc, kind, header.get("status"), diags, output, expected))
    width = len(reqs)
    rates, rps, parts = [], [], []
    for w in range(0, len(done) - width + 1, width):
        part = done[w:w + width]
        span = part[-1][2] - (done[w - 1][2] if w else part[0][1])
        rates.append(sum(reqs[i][1].n_ops for i, *_ in part) / span)
        rps.append(len(part) / span)
        parts.append([(a - s) * 1e3 for _, s, a, _ in part])
    metrics = run_stats(rates, parts)
    metrics.update({"requests_per_s": stat_or_omit(percentile, rps, 25),
                    "setup_s": percentile(setup, 75), "peak_rss_mb": rss})
    return metrics, {
        "requests": len(done),
        "part_ops_per_s": rates,
        "part_latencies_ms": [[round(x, 3) for x in p] for p in parts],
        "latency_samples": len(done),
        "setup_samples_s": setup,
        "attempted": len(done),
        "outcomes": outcomes,
        "bad_exit": int(srv.proc.returncode != 0),
    }


# ------------------------------------------------------------ traced run


def layers_run(listing, work, record, server):
    res = os.path.join(work, "layers-%d.txt" % record)
    spans = os.path.join(work, "spans.json")
    r = subprocess.run([LAYERS, "trace", listing, res, spans, str(record), str(int(server))],
                       capture_output=True, text=True)
    if r.returncode != 0:
        fail("layers trace failed:\n" + r.stderr, 4)
    return json.loads(r.stdout), res, spans


def read_layer_results(path):
    """[(file, status, handled status, diags, output)] of a traced run."""
    data = read_bytes(path)
    out, off = [], 0
    while off < len(data):
        eol = data.index(b"\n", off)
        file, status, handled, dlen, olen = data[off:eol].decode().split(" ")
        off = eol + 1
        diags = data[off:off + int(dlen)].decode()
        off += int(dlen)
        output = data[off:off + int(olen)]
        off += int(olen)
        out.append((file, status, handled, diags, output))
    return out


def round_trip_s(reqs, work):
    """The summed client round trips of [reqs], sent one at a time over one
    connection to a fresh server.  The traced run's handle loop sends the
    same requests, in the same order, through Server.handle on a fresh
    frozen context, so the difference is what the wire protocol and the
    socket add."""
    with Server(work) as srv:
        sock = connect(srv.path, time.perf_counter() + 10)
        total = 0.0
        for i, (kind, _, _, file, payload, _) in enumerate(reqs):
            t0 = time.perf_counter()
            call(sock, request_frame(i, kind, file, payload))
            total += time.perf_counter() - t0
        sock.close()
        srv.stop()
    return total


def traced(workload, generated, docs, work):
    server = workload == "server_mixed"
    if server:
        reqs = server_requests(generated * TRACE_SERVER_PASSES, work)
        lines = ["%s %s 0" % (kind, os.path.join(work, "bc" if fmt == "bytecode" else "docs", file))
                 for kind, _, fmt, file, _, _ in reqs]
        checks = [(doc, kind, expected) for kind, doc, _, _, _, expected in reqs]
    else:
        kind = "print" if workload == "text_roundtrip" else "verify"
        sub, ext = ("bc", ".irdlbc") if workload == "bytecode_verify" else ("docs", ".mlir")
        lines = ["%s %s %d" % (kind, os.path.join(work, sub, d.name + ext), d.depth) for d in docs]
        checks = [(d, kind, None) for d in docs]
    listing = os.path.join(work, "layers.txt")
    with open(listing, "w") as f:
        f.write("\n".join(lines) + "\n")
    on, res, spans = layers_run(listing, work, 1, server)
    off, _, _ = layers_run(listing, work, 0, server)
    results = read_layer_results(res)
    if len(results) != len(checks):
        fail("the traced run answered %d of %d requests" % (len(results), len(checks)), 4)
    outcomes = []
    for (doc, kind, expected), (_, status, handled, diags, output) in zip(checks, results):
        outcome = oracle.check_response(doc, kind, status, diags, output, expected)
        if server and handled != status:
            outcome = oracle.WRONG_VERDICT
        outcomes.append(outcome)
    metrics = {k: v for k, v in on.items() if not k.startswith("trace.")}
    metrics["server.transport.s"] = metrics["server.handle.share"] = 0.0
    if server:
        total = round_trip_s(reqs, work)
        metrics["server.transport.s"] = max(0.0, total - on["server.handle.s"])
        metrics["server.handle.share"] = min(1.0, on["server.handle.s"] / total)
    metrics["trace.overhead_frac"] = (on["trace.loop_s"] - off["trace.loop_s"]) / off["trace.loop_s"]
    return metrics, {"attempted": len(outcomes), "outcomes": outcomes, "bad_exit": 0,
                     "spans": on["trace.spans"], "spans_file": spans, "traced_loop_s": on["trace.loop_s"],
                     "untraced_loop_s": off["trace.loop_s"]}


# ----------------------------------------------------------------- main

UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "requests_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_p99_ms": "ms", "peak_rss_mb": "MiB"}


def layer_unit(name):
    for suffix, unit in ((".alloc_mw", "Mword"), (".ops_per_s", "ops/s"), (".bytes_per_s", "B/s"),
                         (".share", "frac"), (".hit_rate", "frac"), ("_frac", "frac"),
                         (".depth_ratio", "ratio"), ("_mb", "MiB"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="%d invocations or request passes; separate result file" % SMOKE_INVOCATIONS)
    a = ap.parse_args()
    global SMOKE
    SMOKE = a.smoke
    check_checkout()
    build()
    work = os.path.join(HERE, "work", a.workload)
    shutil.rmtree(work, ignore_errors=True)
    results = os.path.join(HERE, "results", "smoke" if a.smoke else "")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace))
    generated = gen.GENERATORS[a.workload](a.seed)
    docs = gen.docs_of(a.workload, generated)
    paths = gen.write(a.workload, generated, os.path.join(work, "docs"))
    if a.workload in ("bytecode_verify", "server_mixed"):
        os.makedirs(os.path.join(work, "bc"))
        encodable = [p for d, p in zip(docs, paths) if d.status != "parse_error"]
        r = subprocess.run([LAYERS, "encode", os.path.join(work, "bc")] + encodable, capture_output=True, text=True)
        if r.returncode != 0:
            fail("encoding failed:\n" + r.stderr, 4)
    if a.trace:
        metrics, detail = traced(a.workload, generated, docs, work)
        detail["spans_file"] = shutil.move(detail["spans_file"], stem + "-spans.json")
        units = {k: layer_unit(k) for k in metrics}
    elif a.workload == "server_mixed":
        n = SMOKE_PASSES if a.smoke else max(MIN_PASSES, round(a.seconds * SERVER_REQUESTS_PER_S / len(generated)))
        metrics, detail = server_mixed(generated, n, work)
        units = UNITS
    else:
        bc = a.workload == "bytecode_verify"
        inputs = [os.path.join(work, "bc", d.name + ".irdlbc") for d in docs] if bc else paths
        n = SMOKE_INVOCATIONS if a.smoke else max(MIN_INVOCATIONS, round(a.seconds / INVOCATION_S))
        metrics, detail = one_shot(docs, inputs, work, a.workload != "text_roundtrip", n)
        units = UNITS
    metrics = {k: v for k, v in metrics.items() if v is not None}
    outcomes = detail.pop("outcomes")
    failed = sum(o != oracle.OK for o in outcomes) + detail["bad_exit"]
    unexpected = sum(o not in oracle.KNOWN for o in outcomes) + detail["bad_exit"]
    attempted = detail["attempted"]
    by_outcome = {o: outcomes.count(o) for o in sorted(set(outcomes))}
    for name, value in metrics.items():
        print("%-16s %-28s %16.6g %s" % (a.workload, name, value, units[name]))
    print("%-16s %-28s %16.6g %s (%d of %d: %s)" % (a.workload, "failed_frac", failed / attempted, "frac",
                                                     failed, attempted, by_outcome))
    result = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace, "smoke": a.smoke,
        "machine": machine(), "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failed_frac": failed / attempted, "outcomes": by_outcome, "detail": detail,
    }
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    shutil.rmtree(work)
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
