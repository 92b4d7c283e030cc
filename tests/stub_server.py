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

    Script entries: ("json", payload), ("status", code), ("raw", text),
    ("delay", seconds), which waits that long and then serves ok_completion(),
    and ("hangup", None), which closes the connection without a reply.
    With dynamic=True an unscripted completion derives its logprob from a
    digest of the request's user text, so distinct prompts get distinct stable
    scores.
    With keep_alive=True the server speaks HTTP/1.1 and keeps each connection
    open for the next request; with drop_after_reply=True as well, it closes
    each connection after its first reply without saying so in the reply.
    Records (monotonic_time, path, parsed_body) per request in `requests`, the
    raw body bytes in `bodies`, and the count of accepted connections.
    """

    def __init__(self, script=None, dynamic=False, keep_alive=False, drop_after_reply=False):
        self.script = deque(script or [])
        self.default = ("json", ok_completion())
        self.dynamic = dynamic
        self.requests: list[tuple[float, str, dict]] = []
        self.bodies: list[bytes] = []
        self.connections = 0
        self._lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"
            # Buffered, so each reply leaves in one send: headers and body in
            # two would wait out the client's delayed ACK on a kept connection.
            wbufsize = -1

            def setup(self):
                super().setup()
                with server._lock:
                    server.connections += 1

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                raw = self.rfile.read(length)
                body = json.loads(raw or b"{}")
                with server._lock:
                    server.requests.append((time.monotonic(), self.path, body))
                    server.bodies.append(raw)
                    if server.script:
                        entry = server.script.popleft()
                    elif server.dynamic:
                        user = body.get("messages", [{}, {}])[-1].get("content", "")
                        lp = dynamic_logprob(user)
                        entry = ("json", ok_completion(tokens=[("w", lp)], answer=user[:16]))
                    else:
                        entry = server.default
                kind, payload = entry
                if kind == "hangup":
                    self.close_connection = True
                    return
                if kind == "delay":
                    # An Event wait, not time.sleep, which tests may replace.
                    # The client may have given up, so the connection ends here.
                    threading.Event().wait(payload)
                    kind, payload = "json", ok_completion()
                    self.close_connection = True
                if kind == "status":
                    self.reply(payload, b"")
                elif kind == "raw":
                    self.reply(200, payload.encode("utf-8"))
                else:
                    self.reply(200, json.dumps(payload).encode("utf-8"))
                if drop_after_reply:
                    self.close_connection = True

            def reply(self, status, data):
                self.send_response(status)
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
