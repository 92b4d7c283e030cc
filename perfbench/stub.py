"""Local chat-completions endpoint for the search-queries workload.

Run as its own process: ``python3 perfbench/stub.py --delay-ms 1.0``. It prints
``PORT <n>`` once it listens on 127.0.0.1 and serves until stdin closes.

* ``POST /chat/completions`` sleeps a fixed delay, then answers with token
  logprobs derived from the user prompt alone (see ``prompt_logprobs``), so a
  checker can recompute every raw affinity score without asking the stub.
* ``GET /stats`` returns ``{user prompt: request count}`` since the last call
  and resets the counts.

Each response goes out in one ``write`` with Nagle disabled: a reply sent as
headers and then body waits for the client's delayed ACK (about 40 ms a call).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

N_TOKENS = 3


def prompt_logprobs(user_text: str) -> list[float]:
    """Deterministic per-token logprobs in [-2.5, -0.05] from the prompt text."""
    digest = hashlib.sha256(user_text.encode("utf-8")).digest()
    return [-(0.05 + int.from_bytes(digest[2 * i:2 * i + 2], "big") % 2451 / 1000.0)
            for i in range(N_TOKENS)]


def completion_body(user_text: str) -> bytes:
    tokens = [{"token": f"t{i}", "logprob": lp} for i, lp in enumerate(prompt_logprobs(user_text))]
    return json.dumps({
        "model": "bench-model",
        "choices": [{"message": {"role": "assistant", "content": "the shed"},
                     "logprobs": {"content": tokens}}],
    }).encode("utf-8")


def make_handler(delay_s: float, counts: dict[str, int], lock: threading.Lock):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def _reply(self, status: int, body: bytes) -> None:
            head = (f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
            self.wfile.write(head + body)

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", "0"))))
            if self.path != "/chat/completions":
                self._reply(404, b"{}")
                return
            user = body["messages"][-1]["content"]
            with lock:
                counts[user] = counts.get(user, 0) + 1
            time.sleep(delay_s)
            self._reply(200, completion_body(user))

        def do_GET(self):
            if self.path != "/stats":
                self._reply(404, b"{}")
                return
            with lock:
                snapshot = dict(counts)
                counts.clear()
            self._reply(200, json.dumps(snapshot).encode("utf-8"))

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args()
    counts: dict[str, int] = {}
    handler = make_handler(args.delay_ms / 1000.0, counts, threading.Lock())
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    sys.stdin.read()  # the parent closes our stdin to stop us
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
