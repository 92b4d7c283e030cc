"""HTTP client for chat-completions endpoints that expose token log-probabilities.

Adds a persistent content-addressed response cache, bounded retries with
exponential backoff, and a token-bucket rate limit so batch scoring stays
polite to hosted APIs. With a warm cache a whole benchmark run makes zero
network calls.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import ssl
import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from urllib.parse import urlsplit

try:
    import fcntl
except ImportError:  # non-POSIX; appends are then best-effort
    fcntl = None

DEFAULT_BASE_URL = "https://api.openai.com/v1"
DEFAULT_MODEL = "gpt-4o-mini"
# Scoring reads log-probabilities of the greedy answer, so every request samples
# at temperature 0; the value is part of each body and cache key.
TEMPERATURE = 0.0
BACKOFF_CAP_S = 30.0

ENV_API_KEY = ("SEMSEARCH_API_KEY", "OPENAI_API_KEY")
ENV_BASE_URL = ("SEMSEARCH_BASE_URL", "OPENAI_BASE_URL")
ENV_MODEL = ("SEMSEARCH_MODEL",)

# What a send or read on a reused keep-alive connection raises when the server
# closed it while it sat idle. Such a request is resent once on a fresh
# connection, spending no attempt; the same errors on a fresh connection are an
# ordinary failed attempt.
DROPPED_KEEP_ALIVE = (http.client.RemoteDisconnected, ConnectionResetError,
                      BrokenPipeError, ConnectionAbortedError)


class GatewayError(Exception):
    """Base class for gateway failures."""


class MissingCredentialError(GatewayError):
    pass


class LogprobsUnsupportedError(GatewayError):
    """The endpoint answered but returned no per-token log-probabilities."""


class RetryExhaustedError(GatewayError):
    pass


class MalformedResponseError(GatewayError):
    pass


@dataclass(frozen=True)
class TokenLogprobs:
    """Ordered (token_text, natural-log probability) pairs of one completion."""

    tokens: tuple[tuple[str, float], ...]

    def __post_init__(self):
        for text, lp in self.tokens:
            if not lp <= 0.0:  # also rejects NaN, so a NaN reply is never cached
                raise ValueError(f"logprob for token {text!r} is not <= 0 ({lp})")

    def values(self) -> tuple[float, ...]:
        return tuple(lp for _, lp in self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class CompletionRequest:
    system_text: str
    user_text: str
    model: str = DEFAULT_MODEL
    max_tokens: int = 64

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be positive, got {self.max_tokens}")


@dataclass(frozen=True)
class CompletionResult:
    answer_text: str
    token_logprobs: TokenLogprobs
    model_echo: str
    latency_ms: float = field(compare=False)  # timing, not content: a hit equals the miss it replays


def request_digest(model: str, temperature: float, system_text: str, user_text: str) -> str:
    """Stable content digest; identical request content yields identical keys."""
    payload = json.dumps(
        {"model": model, "temperature": temperature, "system": system_text, "user": user_text},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _result_to_payload(result: CompletionResult) -> dict:
    return {
        "answer_text": result.answer_text,
        "tokens": [[t, lp] for t, lp in result.token_logprobs.tokens],
        "model_echo": result.model_echo,
        "latency_ms": result.latency_ms,
    }


def _payload_to_result(payload: dict) -> CompletionResult:
    return CompletionResult(
        answer_text=payload["answer_text"],
        token_logprobs=TokenLogprobs(tuple((t, float(lp)) for t, lp in payload["tokens"])),
        model_echo=payload["model_echo"],
        latency_ms=float(payload["latency_ms"]),
    )


class ResponseCache:
    """Append-only JSONL cache keyed by content digest.

    Each line is one entry, a JSON object with `key` and `value`; appends take
    an exclusive file lock so concurrent writers cannot interleave. A torn
    trailing line (crashed writer) is skipped on load, so prior entries are
    never corrupted. An unwritable path degrades to in-memory caching with a
    warning.
    """

    def __init__(self, path: str | Path | None = None):
        self._entries: dict[str, dict] = {}
        self._lock = threading.Lock()
        self._path: Path | None = None
        if path is not None:
            p = Path(path)
            try:
                p.parent.mkdir(parents=True, exist_ok=True)
                if p.exists():
                    self._load(p)
                else:
                    p.touch()
                self._path = p
            except OSError as exc:
                warnings.warn(f"cache path {p} is not writable ({exc}); using in-memory cache only")

    def _load(self, path: Path) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    self._entries[entry["key"]] = entry["value"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue  # torn or foreign line; ignore

    def lookup(self, key: str) -> dict | None:
        with self._lock:
            return self._entries.get(key)

    def store(self, key: str, value: dict) -> None:
        line = json.dumps({"key": key, "value": value}, separators=(",", ":"))
        with self._lock:
            self._entries[key] = value
            if self._path is None:
                return
            try:
                with open(self._path, "a", encoding="utf-8") as fh:
                    if fcntl is not None:
                        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                    try:
                        fh.write(line + "\n")
                        fh.flush()
                    finally:
                        if fcntl is not None:
                            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
            except OSError as exc:
                warnings.warn(f"cache append failed ({exc}); entry kept in memory only")
                self._path = None


class TokenBucket:
    """Simple token bucket; acquire() blocks until a request token is available."""

    def __init__(self, rate_per_second: float, capacity: int):
        self._rate = max(rate_per_second, 1e-9)
        self._capacity = max(capacity, 1)
        self._tokens = float(self._capacity)
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(self._capacity, self._tokens + (now - self._stamp) * self._rate)
                self._stamp = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self._rate
            time.sleep(wait)


@dataclass
class GatewayConfig:
    base_url: str = DEFAULT_BASE_URL
    api_key: str | None = None
    model: str = DEFAULT_MODEL
    timeout_s: float = 30.0
    max_attempts: int = 5
    backoff_base_s: float = 0.5
    requests_per_second: float = 4.0
    burst: int = 4

    @classmethod
    def from_env(cls) -> "GatewayConfig":
        def first_env(names):
            for name in names:
                value = os.environ.get(name)
                if value:
                    return value
            return None

        return cls(
            base_url=first_env(ENV_BASE_URL) or DEFAULT_BASE_URL,
            api_key=first_env(ENV_API_KEY),
            model=first_env(ENV_MODEL) or DEFAULT_MODEL,
        )


class LLMGateway:
    """Thread-safe client: cache lookup first, then rate-limited POST with retries.

    Requests go over one keep-alive connection, opened on first use and held
    under a lock, so one request is in flight at a time.
    """

    def __init__(self, config: GatewayConfig, cache: ResponseCache | None = None):
        url = urlsplit(config.base_url)
        try:
            self._address = url.hostname, url.port
        except ValueError:  # a port that is not a number in 0-65535
            self._address = None, None
        if url.scheme not in ("http", "https") or not self._address[0]:
            raise ValueError(f"base URL {config.base_url!r} is not an http or https URL with a host")
        self.config = config
        self.cache = cache
        self._https = url.scheme == "https"
        self._path = url.path.rstrip("/") + "/chat/completions"
        self._connection: http.client.HTTPConnection | None = None
        self._connection_lock = threading.Lock()
        self._bucket = TokenBucket(config.requests_per_second, config.burst)

    # -- chat completions ---------------------------------------------------

    def complete(self, request: CompletionRequest) -> CompletionResult:
        started = time.monotonic()
        key = request_digest(request.model, TEMPERATURE, request.system_text, request.user_text)
        if self.cache is not None:
            hit = self.cache.lookup(key)
            if hit is not None:
                # An entry this version rejects (say, a NaN logprob written by
                # an older one) is a miss: the reply fetched below is appended
                # and wins over it on the next load.
                try:
                    result = _payload_to_result(hit)
                except (KeyError, TypeError, ValueError):
                    pass
                else:
                    return replace(result, latency_ms=(time.monotonic() - started) * 1000.0)
        if not self.config.api_key:
            raise MissingCredentialError(
                "no API key configured; set " + " or ".join(ENV_API_KEY)
            )
        body = {
            "model": request.model,
            "temperature": TEMPERATURE,
            "max_tokens": request.max_tokens,
            "logprobs": True,
            "messages": [
                {"role": "system", "content": request.system_text},
                {"role": "user", "content": request.user_text},
            ],
        }
        data, latency_ms = self._post_with_retries(body)
        result = self._parse_completion(data, latency_ms)
        if self.cache is not None:
            self.cache.store(key, _result_to_payload(result))
        return result

    def _parse_completion(self, data: dict, latency_ms: float) -> CompletionResult:
        try:
            choice = data["choices"][0]
            answer = choice["message"]["content"] or ""
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"completion body missing choices/message: {exc}") from exc
        logprobs = choice.get("logprobs")
        content = logprobs.get("content") if isinstance(logprobs, dict) else None
        if not content:
            raise LogprobsUnsupportedError(
                "endpoint returned no token logprobs; scoring requires a logprob-capable endpoint"
            )
        try:
            tokens = tuple((item["token"], float(item["logprob"])) for item in content)
            token_logprobs = TokenLogprobs(tokens)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedResponseError(f"bad token logprob entry: {exc}") from exc
        return CompletionResult(
            answer_text=answer,
            token_logprobs=token_logprobs,
            model_echo=str(data.get("model", "")),
            latency_ms=latency_ms,
        )

    # -- transport ----------------------------------------------------------

    def close(self) -> None:
        """Close the keep-alive connection; a later request opens a new one."""
        with self._connection_lock:
            if self._connection is not None:
                self._connection.close()

    def _connect(self) -> http.client.HTTPConnection:
        host, port = self._address
        if self._https:
            return http.client.HTTPSConnection(host, port, timeout=self.config.timeout_s,
                                               context=ssl.create_default_context())
        return http.client.HTTPConnection(host, port, timeout=self.config.timeout_s)

    def _exchange(self, payload: bytes, headers: dict) -> tuple[int, bytes]:
        self._connection.request("POST", self._path, body=payload, headers=headers)
        response = self._connection.getresponse()
        return response.status, response.read()

    def _post(self, payload: bytes, headers: dict) -> tuple[int, bytes]:
        """(status, body) of one POST; a dropped keep-alive is reopened once."""
        with self._connection_lock:
            if self._connection is None:
                self._connection = self._connect()
            # After a reply that closed the connection, sock is None and the
            # next request connects afresh.
            reused = self._connection.sock is not None
            try:
                try:
                    return self._exchange(payload, headers)
                except DROPPED_KEEP_ALIVE:
                    if not reused:
                        raise
                    self._connection.close()
                    return self._exchange(payload, headers)
            except BaseException:
                # A half-sent request or half-read reply leaves the connection
                # unusable; the next attempt opens a new one.
                self._connection.close()
                raise

    def _post_with_retries(self, body: dict) -> tuple[dict, float]:
        headers = {"Authorization": f"Bearer {self.config.api_key}", "Content-Type": "application/json"}
        payload = json.dumps(body, allow_nan=False).encode("utf-8")
        last_failure = "no attempt made"
        for attempt in range(self.config.max_attempts):
            self._bucket.acquire()
            started = time.monotonic()
            try:
                status, data = self._post(payload, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_failure = f"transport error: {exc}"
            else:
                latency_ms = (time.monotonic() - started) * 1000.0
                if status == 200:
                    try:
                        return json.loads(data), latency_ms
                    except ValueError as exc:
                        raise MalformedResponseError(f"response body is not JSON: {exc}") from exc
                if status == 429 or status >= 500:
                    last_failure = f"HTTP {status}"
                elif status in (401, 403):
                    raise MissingCredentialError(f"endpoint rejected credential (HTTP {status})")
                else:
                    raise GatewayError(f"HTTP {status}: {data.decode('utf-8', 'replace')[:300]}")
            if attempt < self.config.max_attempts - 1:
                # 0.5, 1, 2, 4 ... seconds by default, capped; nondecreasing.
                time.sleep(min(BACKOFF_CAP_S, self.config.backoff_base_s * 2 ** attempt))
        raise RetryExhaustedError(
            f"gave up after {self.config.max_attempts} attempts; last failure: {last_failure}"
        )
