"""Checks irdl-opt's verdicts and outputs against the generator's answers.

Each check returns one of:
  "ok"            the verdict, the diagnostics and the output are right;
  "attr_dropped"  everything is right except that ops whose custom Format
                  does not name their attributes were printed without
                  them (a known printer defect: still a failure);
  "wrong_verdict" the status or the reported errors differ;
  "wrong_output"  any other difference in the output.
"""

import re

OK = "ok"
ATTR_DROPPED = "attr_dropped"
WRONG_VERDICT = "wrong_verdict"
WRONG_OUTPUT = "wrong_output"
# Failures a correct run may still show: the known printer defect.
KNOWN = (OK, ATTR_DROPPED)

DIAG_RE = re.compile(r"^(\S+?):(\d+):[0-9-]+: error: (.*)$")
HEADER_RE = re.compile(r"^// ===== (.*) =====$")


def doc_name(path):
    base = path.rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0]


def errors_by_doc(stderr_text):
    """{document name: [(line, message)]} of the error diagnostics in a
    rendered diagnostics stream (snippet lines are skipped)."""
    found = {}
    for line in stderr_text.splitlines():
        m = DIAG_RE.match(line)
        if m:
            found.setdefault(doc_name(m.group(1)), []).append((int(m.group(2)), m.group(3)))
    return found


def check_text(doc, actual):
    """Compare one document's printed text (without the trailing newline)
    with its expected text, op by op."""
    expected = doc.expected
    if actual == expected:
        return OK
    got = actual.split("\n")
    want = expected.split("\n")
    if len(got) != len(want):
        return WRONG_OUTPUT
    drops = 0
    for i, (g, w) in enumerate(zip(got, want)):
        if g == w:
            continue
        if doc.dropped.get(i) == g:
            drops += 1
            continue
        return WRONG_OUTPUT
    return ATTR_DROPPED if drops else OK


def check_verdict(doc, status, errors):
    if status != doc.status or sorted(errors) != sorted(doc.errors):
        return WRONG_VERDICT
    return OK


def check_batch(docs, stdout_text, stderr_text, exit_code, printed):
    """Check one `irdl-opt --batch` run over [docs] (in list order).
    [printed]: whether the run re-prints (no --verify-only).  Returns the
    per-document outcomes and whether the exit code was right."""
    sections = {}
    current = None
    for line in stdout_text.split("\n"):
        m = HEADER_RE.match(line)
        if m:
            current = doc_name(m.group(1))
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    errors = errors_by_doc(stderr_text)
    outcomes = []
    for doc in docs:
        got_errors = errors.get(doc.name, [])
        # One-shot runs report no per-document status: any error means the
        # document failed, and the errors themselves must match.
        status = "ok" if not got_errors else "verify_error" if doc.status == "ok" else doc.status
        outcome = check_verdict(doc, status, got_errors)
        if outcome == OK and printed and doc.status == "ok":
            lines = sections.get(doc.name)
            if lines is None:
                outcome = WRONG_OUTPUT
            else:
                # Each section ends with the newline Fmt's "@." adds.
                outcome = check_text(doc, "\n".join(lines).rstrip("\n"))
        elif outcome == OK and doc.name in sections:
            outcome = WRONG_OUTPUT
        outcomes.append(outcome)
    statuses = {d.status for d in docs}
    want_exit = 1 if "parse_error" in statuses else 2 if "verify_error" in statuses else 0
    return outcomes, exit_code == want_exit


def check_response(doc, kind, status, diags, output, bytecode=None):
    """Check one server response (or the traced run's result for the same
    request).  [bytecode]: the document's encoding, the expected output of
    an emit-bytecode request."""
    want = doc.status
    if kind == "parse" and want == "verify_error":
        want = "ok"
    got_errors = errors_by_doc(diags).get(doc.name, [])
    want_errors = doc.errors if want != "ok" else []
    if status != want or sorted(got_errors) != sorted(want_errors):
        return WRONG_VERDICT
    if want != "ok":
        return OK if not output else WRONG_OUTPUT
    if kind == "print":
        text = output.decode() if isinstance(output, bytes) else output
        if not text.endswith("\n"):
            return WRONG_OUTPUT
        return check_text(doc, text[:-1])
    if kind == "emit-bytecode":
        return OK if output == bytecode else WRONG_OUTPUT
    return OK if not output else WRONG_OUTPUT
