"""Local chat-completions stub for gateway tests: scripted responses, no network."""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DEFAULT_TOKENS = [("the", -0.1), (" shelf", -0.7)]


def ok_completion(tokens=None, answer="the shelf", model="stub-model"):
    tokens = tokens if tokens is not None else DEFAULT_TOKENS
    return {
        "model": model,
        "choices": [{
            "message": {"role": "assistant", "content": answer},
            "logprobs": {"content": [{"token": t, "logprob": lp} for t, lp in tokens]},
        }],
    }


def dynamic_logprob(user_text):
    """A logprob in (-2.5, -0.05] read from the first 32 bits of the text's SHA-256."""
    digest = hashlib.sha256(user_text.encode("utf-8")).digest()
    return -(0.05 + 2.45 * int.from_bytes(digest[:4], "big") / 2 ** 32)


def no_logprobs_completion(answer="the shelf"):
    return {"model": "stub-model",
            "choices": [{"message": {"role": "assistant", "content": answer}}]}


class StubServer:
    """Serves scripted responses in order; repeats the last one when exhausted.

    Script entries: ("json", payload), ("status", code), ("raw", text).
    With dynamic=True an unscripted completion derives its logprob from a
    digest of the request's user text, so distinct prompts get distinct stable
    scores.
    Records (monotonic_time, path, parsed_body) per request.
    """

    def __init__(self, script=None, dynamic=False):
        self.script = deque(script or [])
        self.default = ("json", ok_completion())
        self.dynamic = dynamic
        self.requests: list[tuple[float, str, dict]] = []
        self._lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length) or b"{}")
                with server._lock:
                    server.requests.append((time.monotonic(), self.path, body))
                    if server.script:
                        entry = server.script.popleft()
                    elif server.dynamic:
                        user = body.get("messages", [{}, {}])[-1].get("content", "")
                        lp = dynamic_logprob(user)
                        entry = ("json", ok_completion(tokens=[("w", lp)], answer=user[:16]))
                    else:
                        entry = server.default
                kind, payload = entry
                if kind == "status":
                    self.send_response(payload)
                    self.end_headers()
                    return
                if kind == "raw":
                    data = payload.encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                    return
                data = json.dumps(payload).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll interval lets shutdown() return within about 10 ms
        # instead of the 0.5 s default, which every test exit would wait out.
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.01}, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
        return False
