import math
import os
import sys

import harness
import measure
import traffic

# A stand-in for `repro serve`: it announces a port, answers one
# /healthz, then exits with code 5 on its first load connection.
CRASHING_SERVER = r"""
import os, socket, sys
sock = socket.socket()
sock.bind(("127.0.0.1", 0))
sock.listen()
print("listening on http://127.0.0.1:%d" % sock.getsockname()[1], file=sys.stderr, flush=True)
conn, _ = sock.accept()
conn.recv(65536)
conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok")
conn.close()
conn, _ = sock.accept()
conn.recv(65536)
os._exit(5)
"""


class FakeServer(harness.Checkout):
    def __init__(self, root, code: str) -> None:
        super().__init__(root)
        self.code = code

    def repro(self, *args):
        return [sys.executable, "-c", self.code]


def test_stop_reads_the_exit_of_a_server_that_already_exited():
    proc, started = harness.spawn([sys.executable, "-c", "raise SystemExit(3)"], None)
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)  # exited, not reaped
    ended = harness.stop(proc, started)
    assert ended.code == 3
    assert ended.rss_mb > 0


def test_a_server_that_exits_at_start_up_fails_its_round(tmp_path):
    co = FakeServer(tmp_path, "raise SystemExit(4)")
    co.prepare()
    load = traffic.generate(0, 10)
    rnd = measure._serve_round(co, load)
    assert rnd is None
    result = measure.Result("serve")
    samples = measure._account(load, rnd, {}, result)
    assert result.attempted == result.failed == 20
    assert result.notes == ["serve round failed to start"]
    assert all(math.isinf(sample.latency_ms) for sample in samples)


def test_a_server_that_crashes_under_load_fails_its_round(tmp_path):
    co = FakeServer(tmp_path, CRASHING_SERVER)
    co.prepare()
    load = traffic.generate(0, 10)
    rnd = measure._serve_round(co, load)
    assert rnd is not None and rnd.exit_code == 5
    result = measure.Result("serve")
    samples = measure._account(load, rnd, {}, result)
    assert len(samples) == 20
    assert result.attempted == result.failed == 20
    assert "serve: server exit 5" in result.notes
    assert all(math.isinf(sample.latency_ms) for sample in samples)
