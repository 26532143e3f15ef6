"""Seeded input generator for the irdl-opt benchmark.

Every document is built together with its known answer: the status a
correct irdl-opt gives it, the diagnostics it must report (line and
message), and, for documents that print, the exact expected text.  The
answers come from construction, never from running irdl-opt.

Documents are written in the printer's canonical form (values numbered
%0, %1, ... in definition order, generic syntax except for the two cmath
ops whose IRDL definition has a declarative Format), so a correct
round trip reproduces the input byte for byte.  The same seed always
gives the same bytes: all randomness comes from random.Random instances
seeded from the workload name and the seed.
"""

import json
import os
import random

FLOAT_TYS = ("f32", "f64")
INT_TYS = ("i32", "i64")
COMPLEX = "!cmath.complex<f32>"
FLOAT_BINARY = ("arith.addf", "arith.subf", "arith.mulf", "arith.divf", "math.atan2")
FLOAT_UNARY = ("arith.negf", "math.exp", "math.sqrt", "math.tanh", "math.abs")
INT_BINARY = ("arith.addi", "arith.subi", "arith.muli", "arith.andi", "arith.ori", "arith.xori")

# (kind, weight) of the op mix of a corpus-shaped document.
OP_MIX = (
    ("float_binary", 5),
    ("float_unary", 3),
    ("int_binary", 4),
    ("float_const", 2),
    ("int_const", 2),
    ("complex_const", 1),
    ("cmath_mul", 2),
    ("cmath_norm", 1),
)

ERROR_MESSAGES = {
    "norm_of_float": "'cmath.norm': operand 'c': expected a !cmath.complex type, got f32",
    "mixed_addf": "'arith.addf': operand 'rhs': constraint variable T already bound to f32, got f64",
    "undefined_value": "use of undefined value %999999",
}


class Doc:
    """One generated document and its known answer.

    status: "ok", "verify_error" or "parse_error".
    errors: [(line, message)] of the error diagnostics it must report.
    expected: the exact printed text of an "ok" document.
    dropped: {line index: text} for ops whose Format does not name their
      attributes; the text is what a printer that drops them writes.
    """

    def __init__(self, name, lines, n_ops, status="ok", errors=(), dropped=None, depth=0):
        self.name = name
        self.text = "\n".join(lines) + "\n"
        self.lines = lines
        self.n_ops = n_ops
        self.status = status
        self.errors = list(errors)
        self.dropped = dropped or {}
        self.depth = depth

    @property
    def expected(self):
        return "\n".join(self.lines) if self.status == "ok" else None

    def answer(self):
        return {
            "name": self.name,
            "ops": self.n_ops,
            "status": self.status,
            "errors": self.errors,
            "expected": self.expected,
            "dropped": {str(k): v for k, v in sorted(self.dropped.items())},
        }


def float_literal(v):
    """The printer's rendering of a float attribute value."""
    if float(v).is_integer():
        return "%.1f" % v
    return "%.15g" % v


def weighted_kinds(rng, n):
    kinds = [k for k, _ in OP_MIX]
    weights = [w for _, w in OP_MIX]
    return rng.choices(kinds, weights=weights, k=n)


def corpus_doc(rng, name, n_ops, attr_share, drop=False, error=None):
    """A flat document of [n_ops] top-level ops drawn from arith, math and
    cmath.  [attr_share] of the generic ops carry a discardable attribute
    with a name unique to this document.  [drop] puts one attributed op
    whose custom Format does not name the attribute at a random position;
    [error] ("norm_of_float", "mixed_addf" or "undefined_value") replaces
    one op by a broken one."""
    assert not (drop and error)
    lines = []
    pools = {t: [] for t in FLOAT_TYS + INT_TYS + (COMPLEX,)}
    dropped = {}
    tag_counter = [0]

    def tag():
        tag_counter[0] += 1
        return '%s_%d' % (name, tag_counter[0])

    def pick(ty):
        return "%%%d" % rng.choice(pools[ty][-8:])

    def emit(text, ty):
        if ty is not None:
            pools[ty].append(len(lines))
        lines.append(text)

    def attrs(base):
        extra = ['tag = "%s"' % tag()] if rng.random() < attr_share else []
        items = base + extra
        return " {%s}" % ", ".join(items) if items else ""

    def res():
        return "%%%d = " % len(lines)

    # A prologue of constants so every pool has a value to use.
    for t in FLOAT_TYS:
        emit(res() + '"arith.constant"() {value = %s : %s} : () -> (%s)'
             % (float_literal(rng.randrange(1, 64) / 4), t, t), t)
    for t in INT_TYS:
        emit(res() + '"arith.constant"() {value = %d : %s} : () -> (%s)' % (rng.randrange(1000), t, t), t)
    emit(res() + '"cmath.create_constant"() {re = %s : f32, im = %s : f32} : () -> (%s)'
         % (float_literal(rng.randrange(64) / 4), float_literal(rng.randrange(64) / 4), COMPLEX), COMPLEX)
    body = n_ops - len(lines)
    drop_at = rng.randrange(body) if drop else -1
    error_at = rng.randrange(body) if error else -1
    for i, kind in enumerate(weighted_kinds(rng, body)):
        if i == drop_at:
            c = pick(COMPLEX)
            at = len(lines)
            t = tag()
            emit(res() + '"cmath.norm"(%s) {tag = "%s"} : (%s) -> (f32)' % (c, t, COMPLEX), "f32")
            dropped[at] = "%%%d = cmath.norm %s : f32" % (at, c)
            continue
        if i == error_at:
            if error == "norm_of_float":
                lines.append(res() + '"cmath.norm"(%s) : (f32) -> (f32)' % pick("f32"))
            elif error == "mixed_addf":
                lines.append(res() + '"arith.addf"(%s, %s) : (f32, f64) -> (f32)' % (pick("f32"), pick("f64")))
            else:
                lines.append(res() + '"arith.addf"(%s, %%999999) : (f32, f32) -> (f32)' % pick("f32"))
            continue
        if kind == "float_binary":
            t = rng.choice(FLOAT_TYS)
            emit(res() + '"%s"(%s, %s)%s : (%s, %s) -> (%s)'
                 % (rng.choice(FLOAT_BINARY), pick(t), pick(t), attrs([]), t, t, t), t)
        elif kind == "float_unary":
            t = rng.choice(FLOAT_TYS)
            emit(res() + '"%s"(%s)%s : (%s) -> (%s)' % (rng.choice(FLOAT_UNARY), pick(t), attrs([]), t, t), t)
        elif kind == "int_binary":
            t = rng.choice(INT_TYS)
            emit(res() + '"%s"(%s, %s)%s : (%s, %s) -> (%s)'
                 % (rng.choice(INT_BINARY), pick(t), pick(t), attrs([]), t, t, t), t)
        elif kind == "float_const":
            t = rng.choice(FLOAT_TYS)
            emit(res() + '"arith.constant"()%s : () -> (%s)'
                 % (attrs(["value = %s : %s" % (float_literal(rng.randrange(256) / 4), t)]), t), t)
        elif kind == "int_const":
            t = rng.choice(INT_TYS)
            emit(res() + '"arith.constant"()%s : () -> (%s)' % (attrs(["value = %d : %s" % (rng.randrange(10**6), t)]), t), t)
        elif kind == "complex_const":
            emit(res() + '"cmath.create_constant"()%s : () -> (%s)'
                 % (attrs(["re = %s : f32" % float_literal(rng.randrange(64) / 4),
                           "im = %s : f32" % float_literal(rng.randrange(64) / 4)]), COMPLEX), COMPLEX)
        elif kind == "cmath_mul":
            emit(res() + "cmath.mul %s, %s : f32" % (pick(COMPLEX), pick(COMPLEX)), COMPLEX)
        else:
            emit(res() + "cmath.norm %s : f32" % pick(COMPLEX), "f32")
    if error is None:
        return Doc(name, lines, n_ops, dropped=dropped)
    line = error_at + 6  # 1-based line of the broken op, after the 5-op prologue
    status = "parse_error" if error == "undefined_value" else "verify_error"
    return Doc(name, lines, n_ops, status=status, errors=[(line, ERROR_MESSAGES[error])], dropped=dropped)


def nested_doc(rng, name, depth):
    """Two ops whose attribute and type parameters nest [depth] deep; the
    innermost values are drawn per document so no two documents share a
    nested structure."""
    k = rng.randrange(1, 10**6)
    attr = "[" * depth + "%d : i32" % k + "]" * depth
    ty = "!builtin.vector<[4 : i64], " * (depth - 1) + "!builtin.vector<[%d : i64], f32" % k + ">" * depth
    lines = [
        '%%0 = "bench.src"() {a = %s} : () -> (%s)' % (attr, ty),
        '%%1 = "math.exp"(%%0) : (%s) -> (%s)' % (ty, ty),
    ]
    return Doc(name, lines, 2, depth=depth)


# Workload shapes.  Sizes are fixed per workload (not adapted to the
# machine) so a seed names the same inputs everywhere; the seed draws the
# documents' contents and which of them carry the seeded shares below,
# never how many, so every seed does the same amount of work.
TEXT_OPS = 200  # ops per text_roundtrip / bytecode_verify document
# One document in HEAVY_EVERY is HEAVY_OPS long: real modules vary in
# size, and the largest ones set the latency tail.  With 5% of documents
# heavy, latency_p99_ms falls inside the heavy documents' distribution
# instead of on the edge between it and rare scheduling stalls.
HEAVY_OPS = 1000
HEAVY_EVERY = 20
# Per op, checking bytecode costs about a quarter of parsing and printing
# text; its heavy documents are four times longer so the tail still sits
# at tens of milliseconds, well above the few-millisecond scheduling
# stalls of a shared host.
BYTECODE_HEAVY_OPS = 4000
TEXT_DOCS = 120
TEXT_ATTR_SHARE = 0.2  # generic ops carrying a discardable attribute
DROP_SHARE = 0.1  # documents with one attributed custom-format op
BYTECODE_DOCS = 200
ERROR_SHARE = 0.1  # bytecode_verify documents breaking a constraint
NESTED_DEPTH = 50  # d; every NESTED_DEEP_EVERY-th document nests 4d
NESTED_DOCS = 40
NESTED_DEEP_EVERY = 10
SERVER_OPS = 600
SERVER_POOL = 28  # distinct SERVER_OPS documents
SERVER_REQUESTS = 60  # one pass; a run replays it many times
# Every HEAVY_STRIDE-th request of a pass is a heavy one, a different kind
# each time, on one of two SERVER_HEAVY_OPS documents.  Fixing where they
# sit and what they ask keeps the latency tail (heavy requests, and what
# runs beside them on the other connection) the same from seed to seed.
SERVER_HEAVY_OPS = 3000
HEAVY_STRIDE = 15
HEAVY_KINDS = (("print", "text"), ("verify", "text"), ("emit-bytecode", "text"), ("verify", "bytecode"))
# (request kind, input format, error, weight) of the server_mixed mix.
SERVER_MIX = (
    ("verify", "text", None, 30),
    ("print", "text", None, 25),
    ("emit-bytecode", "text", None, 15),
    ("verify", "bytecode", None, 20),
    ("verify", "text", "mixed_addf", 5),
    ("parse", "text", "undefined_value", 5),
)


def rng_for(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def doc_ops(i, heavy=HEAVY_OPS):
    return heavy if i % HEAVY_EVERY == HEAVY_EVERY - 1 else TEXT_OPS


def text_roundtrip(seed):
    rng = rng_for("text_roundtrip", seed)
    drops = set(rng.sample(range(TEXT_DOCS), round(TEXT_DOCS * DROP_SHARE)))
    return [corpus_doc(rng, "t%04d" % i, doc_ops(i), TEXT_ATTR_SHARE, drop=i in drops) for i in range(TEXT_DOCS)]


def bytecode_verify(seed):
    rng = rng_for("bytecode_verify", seed)
    broken = set(rng.sample(range(BYTECODE_DOCS), round(BYTECODE_DOCS * ERROR_SHARE)))
    return [corpus_doc(rng, "b%04d" % i, doc_ops(i, BYTECODE_HEAVY_OPS), TEXT_ATTR_SHARE,
                       error=rng.choice(("norm_of_float", "mixed_addf")) if i in broken else None)
            for i in range(BYTECODE_DOCS)]


def nested_attrs(seed):
    rng = rng_for("nested_attrs", seed)
    return [nested_doc(rng, "n%04d" % i,
                       4 * NESTED_DEPTH if i % NESTED_DEEP_EVERY == NESTED_DEEP_EVERY - 1 else NESTED_DEPTH)
            for i in range(NESTED_DOCS)]


def server_mixed(seed):
    """The pool of distinct documents and the request sequence replayed
    over it, one pass: [(kind, doc, input format)].  Besides the heavy
    requests, each mix entry gets its exact share of the requests, in a
    seeded order, cycling through the pool in a seeded order."""
    rng = rng_for("server_mixed", seed)
    n_heavy = len(range(0, SERVER_REQUESTS, HEAVY_STRIDE))
    total = sum(m[3] for m in SERVER_MIX)
    entries = [m[:3] for m in SERVER_MIX
               for _ in range(max(1, round((SERVER_REQUESTS - n_heavy) * m[3] / total)))]
    rng.shuffle(entries)
    slots = list(range(SERVER_POOL))
    rng.shuffle(slots)
    pool = {}

    def doc(key, ops, error=None):
        if key not in pool:
            name = "s%s%s" % (key[0], "" if error is None else "_" + error)
            pool[key] = corpus_doc(random.Random("%d:%s:%s" % (seed, key[0], error)), name, ops,
                                   TEXT_ATTR_SHARE, error=error)
        return pool[key]

    requests = []
    for i, (kind, fmt, error) in enumerate(entries):
        slot = slots[i % SERVER_POOL]
        requests.append((kind, doc(("%02d" % slot, error), SERVER_OPS, error), fmt))
    for h in range(n_heavy):
        kind, fmt = HEAVY_KINDS[h % len(HEAVY_KINDS)]
        requests.insert(h * HEAVY_STRIDE, (kind, doc(("heavy%d" % (h % 2), None), SERVER_HEAVY_OPS), fmt))
    return requests


GENERATORS = {
    "text_roundtrip": text_roundtrip,
    "bytecode_verify": bytecode_verify,
    "nested_attrs": nested_attrs,
    "server_mixed": server_mixed,
}


def docs_of(workload, generated):
    """The distinct documents of a generated workload."""
    if workload != "server_mixed":
        return generated
    seen = {}
    for _, doc, _ in generated:
        seen.setdefault(doc.name, doc)
    return [seen[k] for k in sorted(seen)]


def write(workload, generated, directory):
    """Write every distinct document as <name>.mlir and the answers as
    answers.json under [directory]; return the document paths in order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    answers = []
    for doc in docs_of(workload, generated):
        path = os.path.join(directory, doc.name + ".mlir")
        with open(path, "w") as f:
            f.write(doc.text)
        paths.append(path)
        answers.append(doc.answer())
    with open(os.path.join(directory, "answers.json"), "w") as f:
        json.dump(answers, f, indent=0, sort_keys=True)
    return paths
