"""HTTP client for chat-completions endpoints that expose token log-probabilities.

Adds a persistent content-addressed response cache, bounded retries with
exponential backoff, and a token-bucket rate limit so batch scoring stays
polite to hosted APIs. A batch of requests is answered from the cache first,
in the caller's thread; its misses are sent concurrently, at most
MAX_IN_FLIGHT at a time. With a warm cache a whole benchmark run makes zero
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
from concurrent.futures import ThreadPoolExecutor
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
# Most misses of one batch in flight at once, and most idle keep-alive
# connections kept. It matches GatewayConfig's default burst and stays under
# the listen backlog of 5 that Python's socketserver gives a local endpoint.
MAX_IN_FLIGHT = 4

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

    `complete_all` looks every request up in the cache in the calling thread,
    so a batch of hits starts no thread and opens no connection. Its misses go
    out at most MAX_IN_FLIGHT at a time: one in the calling thread, two or more
    through a thread pool that lives for that call. Each keeps its own
    token-bucket acquire, retries and backoff, so the order requests reach the
    endpoint is not fixed. The replies are stored in the cache in request
    order, back in the calling thread, so a fresh cache file's lines keep that
    order.

    Requests go over keep-alive connections kept on a stack of at most
    MAX_IN_FLIGHT idle ones: a request takes an idle connection or opens one,
    puts it back after a clean exchange and closes it on any failure.

    Counters, plain ints updated under the gateway's lock: `lookups`, `hits`
    and `misses` of the cache, `posts` (one per attempt), `reopens` of dropped
    keep-alive connections and `connections_opened`.
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
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        self._bucket = TokenBucket(config.requests_per_second, config.burst)
        self.lookups = self.hits = self.misses = 0
        self.posts = self.reopens = self.connections_opened = 0

    # -- chat completions ---------------------------------------------------

    def complete(self, request: CompletionRequest) -> CompletionResult:
        return self.complete_all([request])[0]

    def complete_all(self, requests: list[CompletionRequest]) -> list[CompletionResult]:
        """One result per request, in order.

        A request repeated in the batch is sent once. If any miss fails, this
        raises the exception of the first failing request in request order,
        with that request's position as its `request_index` attribute. It does
        so only after every request in flight has ended, and the replies that
        did arrive are cached first. Once a miss has failed, misses not yet
        sent are not sent.
        """
        results: list[CompletionResult | None] = [None] * len(requests)
        pending: dict[str, list[int]] = {}  # digest of each distinct miss -> its positions
        hits = 0
        for i, request in enumerate(requests):
            started = time.monotonic()
            key = request_digest(request.model, TEMPERATURE, request.system_text, request.user_text)
            if key in pending:
                pending[key].append(i)
                continue
            hit = self._lookup(key)
            if hit is None:
                pending[key] = [i]
            else:
                hits += 1
                results[i] = replace(hit, latency_ms=(time.monotonic() - started) * 1000.0)
        with self._lock:
            self.lookups += hits + len(pending)
            self.hits += hits
            self.misses += len(pending)
        if not pending:
            return results
        if not self.config.api_key:
            error = MissingCredentialError("no API key configured; set " + " or ".join(ENV_API_KEY))
            error.request_index = next(iter(pending.values()))[0]
            raise error
        failure = None
        outcomes = self._fetch_all([requests[where[0]] for where in pending.values()])
        for (key, where), outcome in zip(pending.items(), outcomes):
            if isinstance(outcome, CompletionResult):
                if self.cache is not None:
                    self.cache.store(key, _result_to_payload(outcome))
                for i in where:
                    results[i] = outcome
            elif isinstance(outcome, Exception) and failure is None:
                failure = outcome
                failure.request_index = where[0]
        if failure is not None:
            raise failure
        return results

    def _lookup(self, key: str) -> CompletionResult | None:
        if self.cache is None:
            return None
        hit = self.cache.lookup(key)
        if hit is None:
            return None
        # An entry this version rejects (say, a NaN logprob written by an
        # older one) is a miss: the reply fetched for it is appended and wins
        # over it on the next load.
        try:
            return _payload_to_result(hit)
        except (KeyError, TypeError, ValueError):
            return None

    def _fetch_all(self, requests: list[CompletionRequest]) -> list:
        """Per request, its CompletionResult, the exception it failed with, or
        None if it was not sent because another had already failed."""
        failed = threading.Event()

        def fetch(request: CompletionRequest):
            if failed.is_set():
                return None
            try:
                return self._fetch(request)
            except Exception as exc:
                failed.set()
                return exc

        if len(requests) == 1:
            return [fetch(requests[0])]
        with ThreadPoolExecutor(max_workers=min(MAX_IN_FLIGHT, len(requests))) as pool:
            return list(pool.map(fetch, requests))

    def _fetch(self, request: CompletionRequest) -> CompletionResult:
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
        return self._parse_completion(data, latency_ms)

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
        """Close the idle keep-alive connections; a later request opens a new one."""
        with self._lock:
            while self._idle:
                self._idle.pop().close()

    def _connect(self) -> http.client.HTTPConnection:
        host, port = self._address
        with self._lock:
            self.connections_opened += 1
        if self._https:
            return http.client.HTTPSConnection(host, port, timeout=self.config.timeout_s,
                                               context=ssl.create_default_context())
        return http.client.HTTPConnection(host, port, timeout=self.config.timeout_s)

    def _exchange(self, connection: http.client.HTTPConnection, payload: bytes,
                  headers: dict) -> tuple[int, bytes]:
        connection.request("POST", self._path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()

    def _post(self, payload: bytes, headers: dict) -> tuple[int, bytes]:
        """(status, body) of one POST; a dropped keep-alive is reopened once."""
        with self._lock:
            self.posts += 1
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        if connection is None:
            connection = self._connect()
        try:
            try:
                reply = self._exchange(connection, payload, headers)
            except DROPPED_KEEP_ALIVE:
                if not reused:
                    raise
                connection.close()
                with self._lock:
                    self.reopens += 1
                    self.connections_opened += 1
                # A closed HTTPConnection connects afresh on its next request.
                reply = self._exchange(connection, payload, headers)
        except BaseException:
            # A half-sent request or half-read reply leaves the connection
            # unusable; the next attempt opens a new one.
            connection.close()
            raise
        with self._lock:
            # After a reply that closed the connection, sock is None: it is
            # dropped rather than kept.
            if connection.sock is not None and len(self._idle) < MAX_IN_FLIGHT:
                self._idle.append(connection)
                return reply
        connection.close()
        return reply

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
