"""Command line surface: exit codes, output formats, config handling."""

from __future__ import annotations

import errno
import io
import os
import random
import resource
import stat
import subprocess
import sys
import time

import pytest

from rainbowfree.canon import are_isomorphic, canonical_relabeling
from rainbowfree.cli import FAIL, LIMIT, OK, USAGE, main
from rainbowfree.constructions import (
    double,
    doubled_nine,
    is_tstar_family,
    pair_family,
    t_star,
)
from rainbowfree.family import (
    MAX_MEMBERS,
    MAX_VERTICES,
    MULTISET,
    SET,
    family_from_triangles,
    parse_family,
    serialize_family,
)
from rainbowfree.rainbow import RainbowCertificate, verify_certificate
from rainbowfree.search import MAX_SEARCH_N


def fake_stdin(text: str) -> io.TextIOWrapper:
    """A text stream over bytes, as sys.stdin is, so that .buffer exists."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", fake_stdin(stdin))
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def save(tmp_path, name, family):
    p = tmp_path / name
    p.write_text(serialize_family(family))
    return str(p)


RAINBOW3 = family_from_triangles(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])


# -- check


def test_check_rainbow_free(tmp_path, capsys):
    path = save(tmp_path, "t8.trifam", t_star(8))
    code, out, _ = run_cli(capsys, ["check", path])
    assert code == OK and out == "rainbow-free\n"
    code, out, _ = run_cli(capsys, ["check", path, "--porcelain"])
    assert code == OK and out == "status=rainbow-free\n"


def test_check_rainbow_prints_certificate(tmp_path, capsys):
    path = save(tmp_path, "bad.trifam", RAINBOW3)
    code, out, _ = run_cli(capsys, ["check", path])
    assert code == FAIL and "rainbow" in out
    code, out, _ = run_cli(capsys, ["check", path, "--porcelain"])
    assert code == FAIL and out.startswith("status=rainbow\n")


def test_check_verify_bound(tmp_path, capsys):
    path = save(tmp_path, "t8.trifam", t_star(8))
    code, out, _ = run_cli(capsys, ["check", path, "--verify-bound"])
    assert code == OK
    assert "bound 8|T| = 64 <= n^2 = 64: holds" in out
    code, out, _ = run_cli(capsys, ["check", path, "--verify-bound", "--porcelain"])
    assert code == OK and "bound=holds" in out

    mpath = save(tmp_path, "d9.trifam", doubled_nine())
    code, out, _ = run_cli(capsys, ["check", mpath, "--verify-bound"])
    assert code == OK and "bound n/a (multiset mode)" in out
    code, out, _ = run_cli(capsys, ["check", mpath, "--verify-bound", "--porcelain"])
    assert code == OK and "bound=n/a" in out


def test_check_reads_stdin(capsys, monkeypatch):
    text = serialize_family(t_star(4))
    code, out, _ = run_cli(capsys, ["check", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == OK and out == "rainbow-free\n"


def test_check_out_writes_file(tmp_path, capsys):
    path = save(tmp_path, "t4.trifam", t_star(4))
    target = tmp_path / "verdict.txt"
    code, out, _ = run_cli(capsys, ["check", path, "--out", str(target)])
    assert code == OK and out == ""
    assert target.read_text() == "rainbow-free\n"


def test_out_write_failing_partway_keeps_the_previous_file(tmp_path):
    # the file-size limit stops the write after 512 bytes (EFBIG); the
    # previous file stays whole, where truncating it first would leave a
    # TRIFAM prefix that parses as a smaller rainbow-free family
    target = tmp_path / "out.trifam"
    target.write_text(serialize_family(t_star(8)))
    before = target.read_bytes()

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (512, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "rainbowfree.cli", "construct", "tstar", "--n", "32"]
        + ["--out", str(target)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        preexec_fn=cap,
        timeout=60,
    )
    assert len(serialize_family(t_star(32))) > 512
    assert proc.returncode == USAGE, proc.stderr
    efbig = OSError(errno.EFBIG, os.strerror(errno.EFBIG))
    assert proc.stderr == f"error: cannot write {target}: {efbig}\n"
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.trifam"]


def test_out_file_takes_the_mode_open_gives(tmp_path, capsys):
    # a new file gets 0666 less the umask, not the temporary file's 0600,
    # and a file written again keeps its mode
    plain = tmp_path / "plain"
    plain.write_text("")
    out = tmp_path / "out"
    argv = ["construct", "tstar", "--n", "4", "--out", str(out)]
    assert run_cli(capsys, argv)[0] == OK
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    out.chmod(0o640)
    assert run_cli(capsys, argv)[0] == OK
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    # a symlink is written through, as open would, not replaced
    link = tmp_path / "link"
    link.symlink_to(plain)
    assert run_cli(capsys, [*argv[:-1], str(link)])[0] == OK
    assert link.is_symlink() and plain.read_text() == serialize_family(t_star(4))


def test_check_bad_inputs(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["check", str(tmp_path / "missing.trifam")])
    assert code == USAGE and "cannot read" in err
    broken = tmp_path / "broken.trifam"
    broken.write_text("trifam 2\nmode set\nn 4\n0 1 2\n")
    code, _, err = run_cli(capsys, ["check", str(broken)])
    assert code == USAGE and "header" in err
    broken.write_bytes(b"trifam 1\nmode set\nn 4\n0 1 \xff\n")
    code, _, err = run_cli(capsys, ["check", str(broken)])
    assert code == USAGE and "cannot read" in err and "utf-8" in err


def test_check_rainbow_past_63_vertices(tmp_path, capsys):
    wide = family_from_triangles(70, [(65, 66, 67), (65, 66, 68), (65, 67, 68)])
    path = save(tmp_path, "wide.trifam", wide)
    code, out, _ = run_cli(capsys, ["check", path])
    assert code == FAIL
    head, *rows = out.splitlines()
    assert head == "rainbow 65 66 67"
    assignment = []
    for row in rows:
        _, u, v, _, i, _, cp = row.split()
        assignment.append(((int(u), int(v)), (int(i), int(cp))))
    cert = RainbowCertificate((65, 66, 67), tuple(assignment))
    assert verify_certificate(wide, cert)


# -- construct


def test_construct_tstar(capsys):
    code, out, _ = run_cli(capsys, ["construct", "tstar", "--n", "8"])
    assert code == OK
    assert out == serialize_family(t_star(8))
    code, _, err = run_cli(capsys, ["construct", "tstar", "--n", "6"])
    assert code == USAGE and "n % 4" in err
    code, _, err = run_cli(capsys, ["construct", "tstar"])
    assert code == USAGE and "--n" in err


def test_construct_pairs(capsys):
    argv = ["construct", "pairs", "--n", "7", "--pairs", "2", "--apexes", "3"]
    code, out, _ = run_cli(capsys, argv)
    assert code == OK
    assert out == serialize_family(pair_family(7, 2, 3))
    code, _, err = run_cli(capsys, ["construct", "pairs", "--n", "7", "--pairs", "2"])
    assert code == USAGE and "--apexes" in err


def test_construct_fig5(capsys):
    code, out, _ = run_cli(capsys, ["construct", "fig5"])
    assert code == OK
    assert out == serialize_family(doubled_nine())


def test_construct_double(tmp_path, capsys, monkeypatch):
    src = family_from_triangles(6, [(0, 1, 2), (3, 4, 5)])
    path = save(tmp_path, "src.trifam", src)
    code, out, _ = run_cli(capsys, ["construct", "double", path])
    assert code == OK
    assert out == serialize_family(double(src))
    code, out, _ = run_cli(
        capsys,
        ["construct", "double"],
        stdin=serialize_family(src),
        monkeypatch=monkeypatch,
    )
    assert code == OK and out == serialize_family(double(src))


def test_construct_rejects_stray_file(tmp_path, capsys):
    path = save(tmp_path, "t4.trifam", t_star(4))
    code, _, err = run_cli(capsys, ["construct", "tstar", path, "--n", "4"])
    assert code == USAGE and "takes no family file" in err


# -- certify


def test_certify_extremal(tmp_path, capsys):
    path = save(tmp_path, "t8.trifam", t_star(8))
    code, out, _ = run_cli(capsys, ["certify", path])
    assert code == OK and "verdict" in out
    code, out, _ = run_cli(capsys, ["certify", path, "--porcelain"])
    assert code == OK and "verdict=pass" in out
    assert "is_tstar=true" in out and "extremal=true" in out


def test_certify_non_extremal(tmp_path, capsys):
    path = save(tmp_path, "p.trifam", pair_family(7, 2, 3))
    code, out, _ = run_cli(capsys, ["certify", path])
    assert code == OK


def test_certify_rainbow_family(tmp_path, capsys):
    path = save(tmp_path, "bad.trifam", RAINBOW3)
    code, out, _ = run_cli(capsys, ["certify", path, "--porcelain"])
    assert code == FAIL and out.startswith("status=rainbow\n")


def test_certify_mis_limit(tmp_path, capsys):
    big = family_from_triangles(70, [(0, 1, 2)])
    path = save(tmp_path, "big.trifam", big)
    code, _, err = run_cli(capsys, ["certify", path])
    assert code == LIMIT and "error:" in err


def _run_capped(argv):
    """The CLI in a subprocess whose address space is capped at 2 GiB."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, "-m", "rainbowfree.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=cap,
        timeout=120,
    )


def test_large_n_within_memory_cap(tmp_path, capsys, monkeypatch):
    # check's state grows with the members; nothing of size n^2 or n^3
    wide = family_from_triangles(2000, [(0, 1, 2), (0, 3, 4), (1997, 1998, 1999)])
    path = save(tmp_path, "wide.trifam", wide)
    proc = _run_capped(["check", path, "--porcelain"])
    assert proc.returncode == OK, proc.stderr
    assert proc.stdout == "status=rainbow-free\n"
    proc = _run_capped(["certify", path])
    assert proc.returncode == LIMIT, proc.stderr
    assert "exact solver limit" in proc.stderr
    # check scans the 3 support vertices: a count matrix on all 200,000
    # would take 298 GiB
    path = save(tmp_path, "huge.trifam", family_from_triangles(200_000, [(0, 1, 2)]))
    proc = _run_capped(["check", path])
    assert (proc.returncode, proc.stdout) == (OK, "rainbow-free\n"), proc.stderr

    # the scan's state grows with the members even when all 300,000
    # vertices are in the support: 100,000 disjoint triangles, where a
    # count matrix would take 670 GiB and bitmasks on absolute vertex
    # positions 3.5 GiB
    disjoint = tmp_path / "disjoint.trifam"
    disjoint.write_text(
        "trifam 1\nmode set\nn 300000\n"
        + "".join(f"{v} {v + 1} {v + 2}\n" for v in range(0, 300_000, 3))
    )
    proc = _run_capped(["check", str(disjoint), "--porcelain"])
    assert (proc.returncode, proc.stdout) == (OK, "status=rainbow-free\n"), proc.stderr

    # running out of memory anyway still exits 3, with a message
    def no_memory(f):
        raise MemoryError

    monkeypatch.setattr("rainbowfree.cli.find_rainbow", no_memory)
    assert run_cli(capsys, ["check", path]) == (LIMIT, "", "error: out of memory\n")
    monkeypatch.undo()
    # canon needs no count matrix; its maps grow only linearly in n
    proc = _run_capped(["canon", path])
    assert proc.returncode == OK, proc.stderr
    assert proc.stdout.splitlines()[2:] == ["n 200000", "0 1 2"]
    # past MAX_VERTICES the packed member codes would overflow, so every
    # command refuses the file as it is read: no traceback, no hang
    for n, members in ((4_000_000_000, "0 1 2\n"), (10**20, "")):
        path = tmp_path / f"vast-{n}.trifam"
        path.write_text(f"trifam 1\nmode set\nn {n}\n{members}")
        for cmd in ("check", "certify", "canon"):
            proc = _run_capped([cmd, str(path)])
            assert proc.returncode == LIMIT, (cmd, n, proc.stderr)
            assert proc.stderr == (
                f"error: {path}: vertex count must be <= {MAX_VERTICES}, got {n}\n"
            ), (cmd, n)
    # the constructions refuse such n before building a single member
    n = 2_000_000
    for argv in (
        ["construct", "tstar", "--n", str(n)],
        ["construct", "pairs", "--n", str(n), "--pairs", "500000", "--apexes", "1000000"],
    ):
        proc = _run_capped(argv)
        assert proc.returncode == LIMIT, (argv, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: vertex count must be <= {MAX_VERTICES}, got {n}\n"
        ), argv


def test_construct_refuses_by_member_count():
    # 200,000 vertices pass MAX_VERTICES, but t_star would have 5 * 10^9
    # members: refused before building one, so the run costs no more than
    # a 2-member construction does, interpreter start-up included
    def timed(argv):
        start = time.monotonic()
        proc = _run_capped(argv)
        return proc, time.monotonic() - start

    _, tiny = timed(["construct", "tstar", "--n", "4"])
    for argv, count in (
        (["construct", "tstar", "--n", "200000"], 50_000 * 100_000),
        (["construct", "pairs", "--n", "9000", "--pairs", "1000", "--apexes", "7000"], 7_000_000),
    ):
        proc, took = timed(argv)
        assert proc.returncode == LIMIT, (argv, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: member count must be <= {MAX_MEMBERS}, got {count}\n"
        ), argv
        assert took < tiny + 1.0, (argv, took, tiny)


# -- search


def test_search_maximize(capsys):
    code, out, err = run_cli(capsys, ["search", "--n", "7"])
    assert code == OK
    assert out.startswith("best = 6\n")
    assert "witnesses = " in out
    assert "trifam 1" in out  # witness blocks inline
    assert err.startswith("nodes = ")


def test_search_porcelain(capsys):
    code, out, err = run_cli(capsys, ["search", "--n", "6", "--porcelain"])
    assert code == OK
    assert out.startswith("best=4\n")
    assert "witnesses=2" in out
    assert err.startswith("nodes=")


def test_search_prove_found_and_refuted(capsys):
    code, out, _ = run_cli(capsys, ["search", "--n", "8", "--prove", "8"])
    assert code == OK and "witness = found" in out
    code, out, _ = run_cli(capsys, ["search", "--n", "5", "--prove", "4"])
    assert code == FAIL and "witness = refuted" in out


def test_search_prove_without_witness_prints_no_best(capsys):
    # best is the witnesses' size, so a refuted or undecided proof, which
    # has no witness, prints no best= line
    argv = ["search", "--n", "8", "--prove", "9", "--porcelain"]
    code, out, _ = run_cli(capsys, argv)
    assert (code, out) == (FAIL, "witness=refuted\nwitnesses=0\n")
    code, out, _ = run_cli(capsys, argv + ["--node-limit", "3"])
    assert (code, out) == (LIMIT, "witness=undecided\nwitnesses=0\ncompleted=false\n")


def test_search_multiset_prove(capsys):
    argv = ["search", "--n", "9", "--mode", "multiset", "--prove", "12"]
    code, out, _ = run_cli(capsys, argv)
    assert code == OK and "witness = found" in out


def test_search_enumerate(capsys):
    argv = ["search", "--n", "8", "--enumerate-extremal", "--porcelain"]
    code, out, _ = run_cli(capsys, argv)
    assert code == OK and "classes=1" in out


def test_search_node_limit_hits_limit(capsys):
    code, out, _ = run_cli(capsys, ["search", "--n", "7", "--node-limit", "3"])
    assert code == LIMIT and "completed = false" in out


def test_search_witness_files(tmp_path, capsys):
    base = str(tmp_path / "wit")
    code, out, _ = run_cli(capsys, ["search", "--n", "6", "--out", base])
    assert code == OK
    assert f"witness-file.0 = {base}-0" in out
    assert f"witness-file.1 = {base}-1" in out
    assert "trifam 1" not in out
    w0 = parse_family((tmp_path / "wit-0").read_text())
    assert w0.n == 6 and w0.size == 4


def test_search_unwritable_out_refused_before_the_search(tmp_path, capsys, monkeypatch):
    def no_search(cfg):
        raise AssertionError("the search ran")

    monkeypatch.setattr("rainbowfree.cli.run_search", no_search)
    base = str(tmp_path / "missing" / "dir" / "w")
    code, out, err = run_cli(capsys, ["search", "--n", "11", "--out", base])
    assert (code, out) == (USAGE, "")
    assert err.startswith(f"error: cannot write {base}-0: ")
    # a directory where the first witness file goes gets the message the
    # write itself would give
    base = str(tmp_path / "w")
    os.mkdir(base + "-0")
    with pytest.raises(OSError) as late:
        open(base + "-0", "w")
    code, out, err = run_cli(capsys, ["search", "--n", "11", "--out", base])
    assert (code, out, err) == (USAGE, "", f"error: cannot write {base}-0: {late.value}\n")
    os.rmdir(base + "-0")
    # a refuted proof writes no witness file, and the check leaves none
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, ["search", "--n", "5", "--prove", "4", "--out", base])
    assert (code, os.listdir(tmp_path)) == (FAIL, [])


def test_search_unwritable_path_message_repeats(tmp_path, capsys):
    # the probe file's random name stays out of the message
    missing = tmp_path / "missing" / "dir"
    no_dir = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
    for flag, path, prefix in (
        ("--out", f"{missing / 'w'}-0", "cannot write"),
        ("--checkpoint", str(missing / "c.ckpt"), "cannot write checkpoint"),
    ):
        argv = ["search", "--n", "9", flag, path.removesuffix("-0")]
        runs = [run_cli(capsys, argv) for _ in range(2)]
        assert runs[0] == runs[1] == (USAGE, "", f"error: {prefix} {path}: {no_dir}\n")


def test_search_checkpoint_resume(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("rainbowfree.search._CKPT_INTERVAL", 2)
    ck = str(tmp_path / "run.ckpt")
    argv = ["search", "--n", "7", "--node-limit", "5", "--checkpoint", ck]
    code, out, _ = run_cli(capsys, argv)
    assert code == LIMIT and "completed = false" in out
    code, out, _ = run_cli(capsys, ["search", "--resume", ck])
    assert code == OK and out.startswith("best = 6\n")


def test_search_resume_rejects_overrides(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("rainbowfree.search._CKPT_INTERVAL", 2)
    ck = str(tmp_path / "run.ckpt")
    run_cli(capsys, ["search", "--n", "6", "--node-limit", "3", "--checkpoint", ck])
    code, _, err = run_cli(capsys, ["search", "--resume", ck, "--n", "6"])
    assert code == USAGE and "--resume takes --n from the checkpoint" in err
    code, _, err = run_cli(capsys, ["search", "--resume", ck, "--enumerate-extremal"])
    assert code == USAGE and "target" in err
    code, _, err = run_cli(capsys, ["search", "--resume", ck, "--node-limit", "-1"])
    assert code == USAGE and "node limit must be nonnegative" in err
    code, _, err = run_cli(capsys, ["search", "--resume", str(tmp_path / "no.ckpt")])
    assert code == USAGE
    # the checkpoint's n is held to the search cap like --n
    big = tmp_path / "big.ckpt"
    big.write_text(open(ck).read().replace("\nn 6\n", "\nn 65\n", 1))
    code, out, err = run_cli(capsys, ["search", "--resume", str(big)])
    assert code == LIMIT and out == ""
    assert err == f"error: search needs n <= {MAX_SEARCH_N}, got n = 65\n"


def test_search_resume_corrupt_checkpoint_exits_usage(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("rainbowfree.search._CKPT_INTERVAL", 2)
    ck = tmp_path / "run.ckpt"
    run_cli(capsys, ["search", "--n", "6", "--node-limit", "3", "--checkpoint", str(ck)])
    ck.write_text(ck.read_text().replace("\nnodes ", "\nnodes x", 1))
    code, out, err = run_cli(capsys, ["search", "--resume", str(ck)])
    assert code == USAGE and out == ""
    assert err.startswith("error: ") and "integer" in err


def test_search_resume_corrupt_witness_exits_usage(tmp_path, capsys):
    # a witness on more vertices than the cap is a corrupt file (exit 2),
    # not a resource limit, and so is a witness triangle outside its n
    ck = tmp_path / "c6.ckpt"
    run_cli(capsys, ["search", "--n", "6", "--checkpoint", str(ck)])
    text = ck.read_text()
    head = "\nwitness\ntrifam 1\nmode set\nn 6\n"
    for edited in (
        text.replace(head, head.replace("n 6", "n 2000000"), 1),
        text.replace(head + "0 1 2\n", head + "0 1 9\n", 1),
    ):
        assert edited != text
        ck.write_text(edited)
        code, out, err = run_cli(capsys, ["search", "--resume", str(ck)])
        assert code == USAGE and out == ""
        assert err.startswith(f"error: {ck}: witness 1: ")


def test_search_flag_validation(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["search"])
    assert code == USAGE and "--n" in err
    code, _, err = run_cli(
        capsys, ["search", "--n", "6", "--prove", "4", "--enumerate-extremal"]
    )
    assert code == USAGE and "mutually exclusive" in err
    code, _, err = run_cli(capsys, ["search", "--n", "2"])
    assert code == USAGE and "n >= 3" in err
    # the search runs in one process: there is no worker count to set
    code, _, err = run_cli(capsys, ["search", "--n", "6", "--workers", "2"])
    assert code == USAGE and "unrecognized arguments: --workers" in err
    cfg = tmp_path / "workers.cfg"
    cfg.write_text("workers = 2\n")
    code, _, err = run_cli(capsys, ["search", "--n", "6", "--config", str(cfg)])
    assert code == USAGE and "unknown key 'workers'" in err
    # checkpoints come every _CKPT_INTERVAL nodes; a node limit ends a leg
    code, _, err = run_cli(
        capsys, ["search", "--n", "6", "--checkpoint-interval", "5"]
    )
    assert code == USAGE and "unrecognized arguments: --checkpoint-interval" in err


def test_search_n_cap_exits_limit():
    # the C(200,3) pool would take minutes to scan for a single node
    argv = ["search", "--n", "200", "--node-limit", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowfree.cli", *argv],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == LIMIT, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: search needs n <= {MAX_SEARCH_N}, got n = 200\n"


def test_search_node_limit_at_the_n_cap():
    # the largest n a search accepts: a node lists the extensions of all
    # C(64,3) pool triangles, and three of them end well inside the timeout
    argv = ["search", "--n", str(MAX_SEARCH_N), "--node-limit", "3", "--porcelain"]
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowfree.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == LIMIT, proc.stderr
    assert "completed=false" in proc.stdout.splitlines()
    assert proc.stderr == "nodes=3\n"


# -- rs


def test_rs_doubled_nine(tmp_path, capsys):
    path = save(tmp_path, "d9.trifam", doubled_nine())
    code, out, _ = run_cli(capsys, ["rs", path])
    assert code == OK
    assert "n = 9" in out
    assert "t2-constraints = true" in out
    assert "unique-triangle = true" in out
    code, out, _ = run_cli(capsys, ["rs", path, "--porcelain"])
    assert code == OK
    assert out == (
        "n=9\nt1=6\nt2=6\ng2-edges=18\ntotal=12\n"
        "t1-bound=holds\nt2-constraints=true\nunique-triangle=true\n"
    )


def test_rs_rejects_set_mode(tmp_path, capsys):
    path = save(tmp_path, "t8.trifam", t_star(8))
    code, _, err = run_cli(capsys, ["rs", path])
    assert code == USAGE and "multiset" in err


def test_rs_flags_violations(tmp_path, capsys):
    f = family_from_triangles(4, [(0, 1, 2, 2), (0, 1, 3, 2)], MULTISET)
    path = save(tmp_path, "v.trifam", f)
    code, out, _ = run_cli(capsys, ["rs", path])
    assert code == FAIL
    assert "t2-constraints = false" in out
    assert "  edge (0, 1) shared by members" in out
    assert "unique-triangle = false (edge (0, 1))" in out


# -- iso and canon


def test_iso(tmp_path, capsys):
    perm = {v: (v * 3 + 1) % 8 for v in range(8)}
    shuffled = family_from_triangles(
        8, [tuple(sorted(perm[v] for v in t)) for t in t_star(8).support], SET
    )
    a = save(tmp_path, "a.trifam", t_star(8))
    b = save(tmp_path, "b.trifam", shuffled)
    c = save(tmp_path, "c.trifam", pair_family(8, 1, 6))
    code, out, _ = run_cli(capsys, ["iso", a, b])
    assert code == OK and out == "isomorphic\n"
    code, out, _ = run_cli(capsys, ["iso", a, c])
    assert code == FAIL and out == "not-isomorphic\n"
    code, out, _ = run_cli(capsys, ["iso", a, b, "--porcelain"])
    assert code == OK and out == "isomorphic=true\n"


def test_iso_refuses_stdin_for_both_families(tmp_path, capsys, monkeypatch):
    # standard input reads once, so a second '-' would parse an empty family
    text = serialize_family(t_star(8))
    a = save(tmp_path, "a.trifam", t_star(8))
    code, out, err = run_cli(capsys, ["iso", "-", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == USAGE and out == ""
    assert err == "error: iso reads standard input once: give '-' for at most one family\n"
    code, out, _ = run_cli(capsys, ["iso", "-", a], stdin=text, monkeypatch=monkeypatch)
    assert code == OK and out == "isomorphic\n"


def test_canon_normalizes_relabelings(tmp_path, capsys):
    perm = {0: 5, 1: 2, 2: 7, 3: 0, 4: 3, 5: 1, 6: 6, 7: 4}
    shuffled = family_from_triangles(
        8, [tuple(sorted(perm[v] for v in t)) for t in t_star(8).support], SET
    )
    a = save(tmp_path, "a.trifam", t_star(8))
    b = save(tmp_path, "b.trifam", shuffled)
    code, out_a, _ = run_cli(capsys, ["canon", a])
    assert code == OK
    code, out_b, _ = run_cli(capsys, ["canon", b])
    assert code == OK
    assert out_a == out_b
    assert are_isomorphic(parse_family(out_a), t_star(8))


def _canon_relabeled_t_star(n):
    rng = random.Random(n)
    perm = list(range(n))
    rng.shuffle(perm)
    shuffled = family_from_triangles(
        n, [tuple(sorted(perm[v] for v in t)) for t in t_star(n).support], SET
    )
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowfree.cli", "canon", "-"],
        input=serialize_family(shuffled),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == OK, proc.stderr
    assert is_tstar_family(parse_family(proc.stdout))
    return proc.stdout


def test_canon_t_star_16_finishes():
    # |Aut(t_star(16))| = 4! * 2^4 * 8! = 15,482,880; without automorphism
    # pruning the labeling DFS walks every automorphic branch to a leaf
    _canon_relabeled_t_star(16)


def test_canon_t_star_32_finishes():
    # a DFS that starts from no bound lowers its best sequence at almost
    # every leaf it reaches; the greedy dives find the minimum at once
    out = _canon_relabeled_t_star(32)
    _, canonical = canonical_relabeling(t_star(32))
    assert out == serialize_family(canonical)


# -- config files


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "search.cfg"
    cfg.write_text("n = 6\nporcelain = true\n# comment\n\n")
    code, out, _ = run_cli(capsys, ["search", "--config", str(cfg)])
    assert code == OK and out.startswith("best=4\n")
    cfg.write_text("n = 6\nporcelain = no\n")
    code, out, _ = run_cli(capsys, ["search", "--config", str(cfg)])
    assert code == OK and out.startswith("best = 4\n")


def test_config_explicit_flags_win(tmp_path, capsys):
    cfg = tmp_path / "search.cfg"
    cfg.write_text("n = 5\n")
    code, out, _ = run_cli(capsys, ["search", "--n", "7", "--config", str(cfg)])
    assert code == OK and out.startswith("best = 6\n")


def test_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 1\n")
    code, _, err = run_cli(capsys, ["search", "--n", "6", "--config", str(cfg)])
    assert code == USAGE and "unknown key 'mystery'" in err
    cfg.write_text("n = lots\n")
    code, _, err = run_cli(capsys, ["search", "--config", str(cfg)])
    assert code == USAGE and "bad value" in err
    cfg.write_text("just words\n")
    code, _, err = run_cli(capsys, ["search", "--config", str(cfg)])
    assert code == USAGE and "expected key = value" in err
    code, _, err = run_cli(capsys, ["check", "x", "--config", str(tmp_path / "no.cfg")])
    assert code == USAGE and "cannot read" in err
    cfg.write_bytes(b"n = \xff\n")
    code, _, err = run_cli(capsys, ["search", "--config", str(cfg)])
    assert code == USAGE and "cannot read" in err
    # keys are the subcommand's own long options, checked by the parser
    cfg.write_text("command = certify\n")
    code, out, err = run_cli(capsys, ["search", "--n", "6", "--config", str(cfg)])
    assert (code, out) == (USAGE, "") and "unknown key 'command'" in err
    cfg.write_text("file = x\n")
    code, _, err = run_cli(capsys, ["check", "x", "--config", str(cfg)])
    assert code == USAGE and "unknown key 'file'" in err
    cfg.write_text("n = 6\nmode = bogus\n")
    code, _, err = run_cli(capsys, ["search", "--config", str(cfg)])
    assert code == USAGE and f"{cfg}:2: bad value 'bogus' for mode" in err
    cfg.write_text("n = 6\nporcelain = maybe\n")
    code, out, err = run_cli(capsys, ["search", "--config", str(cfg)])
    assert (code, out) == (USAGE, "") and f"{cfg}:2: bad value 'maybe' for porcelain" in err


def test_config_dashed_keys(tmp_path, capsys):
    cfg = tmp_path / "lim.cfg"
    cfg.write_text("node-limit = 3\nn = 7\n")
    code, out, _ = run_cli(capsys, ["search", "--config", str(cfg)])
    assert code == LIMIT and "completed = false" in out


def test_in_process_calls_share_only_the_parser(tmp_path, capsys):
    cfg = tmp_path / "five.cfg"
    cfg.write_text("porcelain = true\nn = 5\n")
    code, out, _ = run_cli(capsys, ["search", "--config", str(cfg)])
    assert code == OK and out.startswith("best=3\n")
    # no config, porcelain or n carries over from the call before
    plain = run_cli(capsys, ["search", "--n", "6"])
    assert plain[0] == OK and plain[1].startswith("best = 4\n")
    assert plain[2].startswith("nodes = ")
    code, _, err = run_cli(capsys, ["search", "--n", "6", "--workers", "2"])
    assert code == USAGE and "--workers" in err
    assert run_cli(capsys, ["search", "--n", "6"]) == plain


# -- parser level


def test_usage_errors(capsys):
    assert run_cli(capsys, [])[0] == USAGE
    assert run_cli(capsys, ["frobnicate"])[0] == USAGE
    assert run_cli(capsys, ["check"])[0] == USAGE
    assert run_cli(capsys, ["construct", "sphere"])[0] == USAGE


def test_unreadable_stdin_exits_usage():
    # stdin is decoded from its bytes, so a strict text layer cannot raise
    # outside the reader's error path
    argv = [sys.executable, "-m", "rainbowfree.cli", "check", "-"]
    proc = subprocess.run(
        argv,
        input=b"trifam 1\nmode set\nn 4\n0 1 2 \xff\n",
        capture_output=True,
        env=dict(os.environ, PYTHONIOENCODING="utf-8:strict"),
        timeout=60,
    )
    assert proc.returncode == USAGE, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: cannot read -: 'utf-8' codec can't decode byte 0xff")
    # with file descriptor 0 closed, Python sets sys.stdin to None
    proc = subprocess.run(
        argv, capture_output=True, preexec_fn=lambda: os.close(0), timeout=60
    )
    assert proc.returncode == USAGE, proc.stderr
    assert proc.stderr == b"error: cannot read -: standard input is closed\n"


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowfree.cli", "construct", "tstar", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == OK
    assert proc.stdout == serialize_family(t_star(4))
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowfree.cli", "check", "-"],
        input=proc.stdout,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == OK and proc.stdout == "rainbow-free\n"
