"""Tests of the benchmark itself: the generator, the oracle and the
percentile helper.  They do not run irdl-opt.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import filecmp
import os
import re
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import oracle  # noqa: E402
from stats import percentile  # noqa: E402


def batch_stdout(docs, texts):
    """What `irdl-opt --batch` prints for documents that verified."""
    return "".join("// ===== docs/%s.mlir =====\n%s\n" % (d.name, t) for d, t in zip(docs, texts) if t is not None)


def batch_stderr(docs):
    return "".join("docs/%s.mlir:%d:1-4: error: %s\n  %d | ...\n" % (d.name, line, msg, line)
                   for d in docs for line, msg in d.errors)


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.docs = gen.text_roundtrip(7)
        self.texts = [d.expected for d in self.docs]
        self.clean = [d for d in self.docs if not d.dropped]
        self.dropping = [d for d in self.docs if d.dropped]
        self.assertTrue(self.clean and self.dropping)

    def check(self, docs, stdout, stderr="", code=0, printed=True):
        return oracle.check_batch(docs, stdout, stderr, code, printed)

    def test_expected_output_passes(self):
        outcomes, exit_ok = self.check(self.docs, batch_stdout(self.docs, self.texts))
        self.assertEqual(outcomes, [oracle.OK] * len(self.docs))
        self.assertTrue(exit_ok)

    def test_corrupted_output_is_flagged(self):
        doc = self.clean[0]
        lines = doc.expected.split("\n")
        lines[7] = lines[7].replace("%", "%1", 1)
        outcomes, _ = self.check([doc], batch_stdout([doc], ["\n".join(lines)]))
        self.assertEqual(outcomes, [oracle.WRONG_OUTPUT])
        outcomes, _ = self.check([doc], batch_stdout([doc], [doc.expected + "\n%999 = cmath.norm %0 : f32"]))
        self.assertEqual(outcomes, [oracle.WRONG_OUTPUT])
        outcomes, _ = self.check([doc], "")
        self.assertEqual(outcomes, [oracle.WRONG_OUTPUT])

    def test_dropped_attributes_are_a_known_failure(self):
        doc = self.dropping[0]
        lines = doc.expected.split("\n")
        for i, text in doc.dropped.items():
            lines[i] = text
        outcomes, _ = self.check([doc], batch_stdout([doc], ["\n".join(lines)]))
        self.assertEqual(outcomes, [oracle.ATTR_DROPPED])
        # Dropping an attribute the Format does not govern is not the known defect.
        i = next(i for i, line in enumerate(lines) if 'tag = "' in line)
        lines[i] = re.sub(r' \{tag = "[^"]*"\}|, tag = "[^"]*"', "", lines[i], count=1)
        outcomes, _ = self.check([doc], batch_stdout([doc], ["\n".join(lines)]))
        self.assertEqual(outcomes, [oracle.WRONG_OUTPUT])

    def test_corrupted_verdict_is_flagged(self):
        bad = gen.bytecode_verify(3)
        failing = [d for d in bad if d.status == "verify_error"]
        passing = [d for d in bad if d.status == "ok"]
        self.assertTrue(failing and passing)
        outcomes, exit_ok = self.check(bad, "", batch_stderr(bad), 2, printed=False)
        self.assertEqual(set(outcomes), {oracle.OK})
        self.assertTrue(exit_ok)
        # An error reported on a document that verifies.
        outcomes, _ = self.check([passing[0]], "", batch_stderr([failing[0]]).replace(failing[0].name, passing[0].name),
                                 2, printed=False)
        self.assertEqual(outcomes, [oracle.WRONG_VERDICT])
        # A broken document reported as verifying, and the exit code that goes with it.
        outcomes, exit_ok = self.check([failing[0]], "", "", 0, printed=False)
        self.assertEqual(outcomes, [oracle.WRONG_VERDICT])
        self.assertFalse(exit_ok)
        # The right document, the wrong line.
        line, msg = failing[0].errors[0]
        stderr = "docs/%s.mlir:%d:1: error: %s\n" % (failing[0].name, line + 1, msg)
        outcomes, _ = self.check([failing[0]], "", stderr, 2, printed=False)
        self.assertEqual(outcomes, [oracle.WRONG_VERDICT])

    def test_server_responses(self):
        doc = self.clean[0]
        ok = oracle.check_response(doc, "print", "ok", "", (doc.expected + "\n").encode())
        self.assertEqual(ok, oracle.OK)
        wrong = oracle.check_response(doc, "print", "ok", "", doc.expected.encode())
        self.assertEqual(wrong, oracle.WRONG_OUTPUT)
        self.assertEqual(oracle.check_response(doc, "verify", "verify_error", "", b""), oracle.WRONG_VERDICT)
        self.assertEqual(oracle.check_response(doc, "emit-bytecode", "ok", "", b"IRBC1", b"IRBC2"),
                         oracle.WRONG_OUTPUT)
        broken = gen.corpus_doc(gen.rng_for("t", 0), "x", 40, 0.2, error="undefined_value")
        diags = "x.mlir:%d:10-17: error: %s\n" % broken.errors[0]
        self.assertEqual(oracle.check_response(broken, "parse", "parse_error", diags, b""), oracle.OK)
        self.assertEqual(oracle.check_response(broken, "parse", "ok", "", b""), oracle.WRONG_VERDICT)


class GeneratorTest(unittest.TestCase):
    def write(self, workload, seed, directory):
        return gen.write(workload, gen.GENERATORS[workload](seed), directory)

    def test_same_seed_same_bytes(self):
        for workload in gen.GENERATORS:
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                pa = self.write(workload, 11, a)
                pb = self.write(workload, 11, b)
                names = [os.path.basename(p) for p in pa] + ["answers.json"]
                self.assertEqual(names[:-1], [os.path.basename(p) for p in pb])
                match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
                self.assertEqual((mismatch, errors), ([], []), workload)

    def test_other_seed_other_bytes(self):
        for workload in gen.GENERATORS:
            a = [d.text for d in gen.docs_of(workload, gen.GENERATORS[workload](1))]
            b = [d.text for d in gen.docs_of(workload, gen.GENERATORS[workload](2))]
            self.assertNotEqual(a, b, workload)

    def test_text_documents_have_unique_names(self):
        docs = gen.text_roundtrip(5)
        tags = [t for d in docs for t in d.text.split('tag = "')[1:]]
        self.assertGreater(len(tags), 100)
        self.assertEqual(len(tags), len(set(tags)))


class PercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(ValueError):
            percentile(list(range(999)), 99)
        with self.assertRaises(ValueError):
            percentile(list(range(19)), 50)
        with self.assertRaises(ValueError):
            percentile(list(range(99)), 90)
        with self.assertRaises(ValueError):
            percentile([], 50)
        # The tail of a low percentile lies below it.
        with self.assertRaises(ValueError):
            percentile(list(range(39)), 25)
        self.assertEqual(percentile(list(range(1, 41)), 25), 10)

    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(percentile(values, 99), 990)
        self.assertEqual(percentile(values, 50), 500)
        self.assertEqual(percentile(list(range(1, 21)), 50), 10)


if __name__ == "__main__":
    unittest.main()
