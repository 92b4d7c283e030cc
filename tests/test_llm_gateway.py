import json
import math
import multiprocessing
import os
import re
import sys
import threading
import time
from contextlib import closing

import pytest

import semsearch.llm_gateway as gw
from semsearch.llm_gateway import (
    CompletionRequest,
    GatewayConfig,
    LLMGateway,
    LogprobsUnsupportedError,
    MalformedResponseError,
    MissingCredentialError,
    ResponseCache,
    RetryExhaustedError,
    TokenLogprobs,
    request_digest,
)

from stub_server import StubServer, dynamic_logprob, no_logprobs_completion, ok_completion


def make_config(base_url, **overrides) -> GatewayConfig:
    defaults = dict(base_url=base_url, api_key="test-key", timeout_s=5.0,
                    backoff_base_s=0.01, requests_per_second=10_000.0, burst=1000)
    defaults.update(overrides)
    return GatewayConfig(**defaults)


def req(user_text="I see the following: screwdriver. Where should I go to find drill?"):
    return CompletionRequest(system_text="sys", user_text=user_text, model="stub-model")


@pytest.fixture()
def no_sleep(monkeypatch):
    delays = []
    monkeypatch.setattr(gw.time, "sleep", delays.append)
    return delays


class TestComplete:
    def test_parses_answer_and_logprobs(self):
        with StubServer() as server:
            gateway = LLMGateway(make_config(server.base_url))
            result = gateway.complete(req())
        assert result.answer_text == "the shelf"
        assert result.model_echo == "stub-model"
        assert len(result.token_logprobs) == 2
        assert all(lp <= 0 for _, lp in result.token_logprobs.tokens)

    def test_request_body_shape(self):
        with StubServer() as server:
            gateway = LLMGateway(make_config(server.base_url))
            gateway.complete(req())
            _, path, body = server.requests[0]
        assert path == "/chat/completions"
        assert body["logprobs"] is True
        assert body["temperature"] == 0.0
        assert [m["role"] for m in body["messages"]] == ["system", "user"]

    def test_missing_logprobs_is_distinct_error(self, no_sleep):
        with StubServer([("json", no_logprobs_completion())]) as server:
            gateway = LLMGateway(make_config(server.base_url))
            with pytest.raises(LogprobsUnsupportedError):
                gateway.complete(req())
            assert len(server.requests) == 1  # not a retryable condition

    def test_retries_on_429_with_nondecreasing_backoff(self, no_sleep):
        script = [("status", 429), ("status", 429), ("json", ok_completion())]
        with StubServer(script) as server:
            gateway = LLMGateway(make_config(server.base_url))
            result = gateway.complete(req())
            assert len(server.requests) == 3
        assert result.answer_text == "the shelf"
        assert len(no_sleep) == 2
        assert no_sleep == sorted(no_sleep)

    def test_retries_on_500_then_gives_up(self, no_sleep):
        with StubServer([("status", 500)] * 10) as server:
            gateway = LLMGateway(make_config(server.base_url, max_attempts=4))
            with pytest.raises(RetryExhaustedError):
                gateway.complete(req())
            assert len(server.requests) == 4

    def test_malformed_body(self):
        with StubServer([("raw", "this is not json")]) as server:
            gateway = LLMGateway(make_config(server.base_url))
            with pytest.raises(MalformedResponseError):
                gateway.complete(req())

    def test_missing_credential(self):
        gateway = LLMGateway(make_config("http://127.0.0.1:1", api_key=None))
        with pytest.raises(MissingCredentialError):
            gateway.complete(req())

    def test_positive_logprob_rejected(self):
        with StubServer([("json", ok_completion(tokens=[("a", 0.2)]))]) as server:
            gateway = LLMGateway(make_config(server.base_url))
            with pytest.raises(MalformedResponseError):
                gateway.complete(req())

    @pytest.mark.parametrize("status", [401, 403])
    def test_rejected_credential_is_not_retried(self, no_sleep, status):
        with StubServer([("status", status)]) as server:
            gateway = LLMGateway(make_config(server.base_url))
            with pytest.raises(MissingCredentialError, match=f"HTTP {status}"):
                gateway.complete(req())
            assert len(server.requests) == 1
        assert no_sleep == []

    def test_refused_connection_retried_with_backoff_then_gives_up(self, no_sleep):
        gateway = LLMGateway(make_config("http://127.0.0.1:1", max_attempts=4))
        with pytest.raises(RetryExhaustedError, match="after 4 attempts; last failure: transport error"):
            gateway.complete(req())
        assert no_sleep == [0.01, 0.02, 0.04]

    def test_body_without_choices_is_malformed(self):
        with StubServer([("json", {"model": "stub-model"})]) as server:
            gateway = LLMGateway(make_config(server.base_url))
            with pytest.raises(MalformedResponseError, match="choices"):
                gateway.complete(req())

    def test_non_transient_status_fails_fast(self, no_sleep):
        with StubServer([("status", 404)]) as server:
            gateway = LLMGateway(make_config(server.base_url))
            with pytest.raises(gw.GatewayError):
                gateway.complete(req())
            assert len(server.requests) == 1

    def test_nan_logprob_rejected_by_the_scorer(self):
        from semsearch.affinity import LLMScorer, ScorerError, score_distribution

        with StubServer([("json", ok_completion(tokens=[("a", math.nan)]))]) as server:
            scorer = LLMScorer(LLMGateway(make_config(server.base_url)))
            with pytest.raises(ScorerError, match=r"bad token logprob entry: .* is not <= 0 \(nan\)"):
                score_distribution(scorer, ["screwdriver"], "drill")


class TestTransport:
    """One keep-alive connection, reopened once when the server dropped it."""

    @staticmethod
    def ask_ten(base_url):
        prompts = [f"prompt number {i}" for i in range(10)]
        with closing(LLMGateway(make_config(base_url))) as gateway:
            for text in prompts:
                assert gateway.complete(req(user_text=text)).answer_text == text[:16]
        return prompts

    def test_sequential_misses_share_one_connection(self, no_sleep):
        with StubServer(dynamic=True, keep_alive=True) as server:
            self.ask_ten(server.base_url)
            assert len(server.requests) == 10
            assert server.connections == 1
        assert no_sleep == []

    def test_dropped_keep_alive_is_reopened_without_a_retry(self, no_sleep):
        with StubServer(dynamic=True, keep_alive=True, drop_after_reply=True) as server:
            prompts = self.ask_ten(server.base_url)
            asked = [body["messages"][-1]["content"] for _, _, body in server.requests]
            assert server.connections == 10
        assert asked == prompts  # each call reached the server exactly once
        assert no_sleep == []

    def test_hangup_on_a_fresh_connection_is_one_failed_attempt(self, no_sleep):
        with StubServer([("hangup", None), ("json", ok_completion())], keep_alive=True) as server:
            with closing(LLMGateway(make_config(server.base_url))) as gateway:
                result = gateway.complete(req())
            assert len(server.requests) == 2
        assert result.answer_text == "the shelf"
        assert no_sleep == [0.01]

    def test_read_timeout_on_a_reused_connection_is_one_failed_attempt(self, no_sleep):
        script = [("json", ok_completion()), ("delay", 0.5), ("json", ok_completion())]
        with StubServer(script, keep_alive=True) as server:
            with closing(LLMGateway(make_config(server.base_url, timeout_s=0.2))) as gateway:
                gateway.complete(req(user_text="first"))
                result = gateway.complete(req(user_text="second"))
            assert len(server.requests) == 3
            assert server.connections == 2
        assert result.answer_text == "the shelf"
        assert no_sleep == [0.01]  # the timed-out request was resent after one backoff

    def test_request_body_bytes(self):
        # json.dumps' default separators, byte for byte the body earlier versions sent.
        request = req()
        with StubServer() as server:
            LLMGateway(make_config(server.base_url)).complete(request)
            (raw,) = server.bodies
        body = {"model": "stub-model", "temperature": 0.0, "max_tokens": 64, "logprobs": True,
                "messages": [{"role": "system", "content": "sys"},
                             {"role": "user", "content": request.user_text}]}
        assert raw == json.dumps(body, allow_nan=False).encode()

    @pytest.mark.parametrize("base_url", ["localhost:8080", "ftp://host/v1", "http://",
                                          "http://host:port/v1"])
    def test_malformed_base_url_is_an_error(self, no_sleep, base_url):
        with pytest.raises(ValueError, match=re.escape(repr(base_url))):
            LLMGateway(make_config(base_url))
        assert no_sleep == []


    def test_counters_of_a_dropping_server(self, no_sleep):
        with StubServer(dynamic=True, keep_alive=True, drop_after_reply=True) as server:
            with closing(LLMGateway(make_config(server.base_url))) as gateway:
                for i in range(10):
                    gateway.complete(req(user_text=f"prompt number {i}"))
        assert (gateway.lookups, gateway.hits, gateway.misses) == (10, 0, 10)  # no cache: all miss
        assert (gateway.posts, gateway.reopens, gateway.connections_opened) == (10, 9, 10)


@pytest.fixture()
def fast_switching():
    """Switch threads as often as the interpreter allows, so races show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def prompts_for(labels, target="drill"):
    from semsearch.affinity import build_prompt

    return [build_prompt(label, target) for label in labels]


LABELS = [f"label {i:02d}" for i in range(12)]


@pytest.mark.usefixtures("fast_switching")
class TestBatch:
    """A distribution's misses go out together, at most MAX_IN_FLIGHT at a time."""

    @staticmethod
    def scorer(base_url, cache=None, **overrides):
        from semsearch.affinity import LLMScorer

        return LLMScorer(LLMGateway(make_config(base_url, **overrides), cache=cache))

    def test_cold_distribution_overlaps_its_misses(self):
        from semsearch.affinity import score_distribution

        with StubServer(dynamic=True, keep_alive=True, delay=lambda user: 0.05) as server:
            scorer = self.scorer(server.base_url)
            started = time.monotonic()
            dist = score_distribution(scorer, LABELS, "drill")
            elapsed = time.monotonic() - started
            scorer.gateway.close()
            asked = [body["messages"][-1]["content"] for _, _, body in server.requests]
            assert server.max_in_flight <= gw.MAX_IN_FLIGHT
            assert server.connections <= gw.MAX_IN_FLIGHT
        assert elapsed < len(LABELS) * 0.05 / 2
        assert sorted(asked) == sorted(prompts_for(LABELS))
        # each label's raw score is its own prompt's, whatever order replies came in
        assert list(dist.raw) == LABELS
        for label, prompt in zip(LABELS, prompts_for(LABELS)):
            assert dist.raw[label] == math.exp(dynamic_logprob(prompt))
        gateway = scorer.gateway
        assert (gateway.lookups, gateway.hits, gateway.misses) == (12, 0, 12)
        assert gateway.posts == gateway.misses
        assert gateway.connections_opened <= gw.MAX_IN_FLIGHT

    def test_all_hit_distribution_starts_no_thread_and_opens_no_connection(self, tmp_path,
                                                                          monkeypatch):
        from semsearch.affinity import score_distribution

        path = tmp_path / "cache.jsonl"
        with StubServer(dynamic=True, keep_alive=True) as server:
            cold = self.scorer(server.base_url, ResponseCache(path))
            with closing(cold.gateway):
                cold_dist = score_distribution(cold, LABELS, "drill")

        def no_thread(*args, **kwargs):
            raise AssertionError("an all-hit batch started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(gw, "ThreadPoolExecutor", no_thread)
        scorer = self.scorer("http://127.0.0.1:1", ResponseCache(path), api_key=None)
        warm_dist = score_distribution(scorer, LABELS, "drill")
        assert warm_dist == cold_dist
        gateway = scorer.gateway
        assert (gateway.lookups, gateway.hits, gateway.misses) == (12, 12, 0)
        assert (gateway.posts, gateway.connections_opened) == (0, 0)

    def test_cache_lines_follow_label_order_when_replies_do_not(self, tmp_path):
        labels = LABELS[:8]
        prompts = prompts_for(labels)
        # the first label waits longest, so later labels' replies come back first
        delay = {prompt: 0.02 * (len(prompts) - i) for i, prompt in enumerate(prompts)}
        path = tmp_path / "cache.jsonl"
        requests = [CompletionRequest(system_text="sys", user_text=p, model="stub-model")
                    for p in prompts]
        with StubServer(dynamic=True, keep_alive=True, delay=delay.__getitem__) as server:
            with closing(LLMGateway(make_config(server.base_url),
                                    cache=ResponseCache(path))) as gateway:
                results = gateway.complete_all(requests)
        assert results[0].latency_ms > results[3].latency_ms  # replies arrived out of order
        assert [r.answer_text for r in results] == [p[:16] for p in prompts]
        keys = [json.loads(line)["key"] for line in path.read_text().splitlines()]
        assert keys == [request_digest(r.model, 0.0, r.system_text, r.user_text)
                        for r in requests]

    def test_rate_limit_holds_across_concurrent_misses(self):
        rate, burst, n = 20.0, 2, 8
        with StubServer(dynamic=True, keep_alive=True) as server:
            with closing(LLMGateway(make_config(server.base_url, requests_per_second=rate,
                                                burst=burst))) as gateway:
                started = time.monotonic()
                gateway.complete_all([req(user_text=f"prompt number {i}") for i in range(n)])
                elapsed = time.monotonic() - started
            assert len(server.requests) == n
        assert elapsed >= (n - burst) / rate
        assert gateway.posts == gateway.misses == n

    def test_first_failing_label_in_label_order_is_raised_after_in_flight_ends(self, tmp_path):
        from semsearch.affinity import SYSTEM_PROMPT, ScorerError, score_distribution

        labels = LABELS[:6]
        prompts = prompts_for(labels)
        # label 3 fails at once, label 1 later; labels 0 and 2 answer last
        delay = {prompts[0]: 0.1, prompts[1]: 0.05, prompts[2]: 0.1}
        path = tmp_path / "cache.jsonl"
        with StubServer(dynamic=True, keep_alive=True, delay=lambda user: delay.get(user, 0.0),
                        statuses={prompts[1]: 404, prompts[3]: 404}) as server:
            scorer = self.scorer(server.base_url, ResponseCache(path))
            started = time.monotonic()
            with pytest.raises(ScorerError, match="scorer failed for seen label 'label 01': "
                                                  "HTTP 404") as caught:
                score_distribution(scorer, labels, "drill")
            elapsed = time.monotonic() - started
            scorer.gateway.close()
            asked = sorted(body["messages"][-1]["content"] for _, _, body in server.requests)
        assert isinstance(caught.value.__cause__, gw.GatewayError)
        assert elapsed >= 0.1  # labels 0 and 2 were still in flight when label 3 failed
        assert asked == sorted(prompts[:4])  # nothing new was sent after the failure
        keys = [json.loads(line)["key"] for line in path.read_text().splitlines()]
        assert keys == [request_digest(gw.DEFAULT_MODEL, 0.0, SYSTEM_PROMPT, prompts[i])
                        for i in (0, 2)]


class TestCache:
    def test_nan_logprob_reply_not_cached(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        script = [("json", ok_completion(tokens=[("a", math.nan)])), ("json", ok_completion())]
        with StubServer(script) as server:
            gateway = LLMGateway(make_config(server.base_url), cache=ResponseCache(path))
            with pytest.raises(MalformedResponseError, match=r"is not <= 0 \(nan\)"):
                gateway.complete(req())
            result = gateway.complete(req())
            assert len(server.requests) == 2
        assert result.answer_text == "the shelf"
        assert result.token_logprobs == TokenLogprobs((("the", -0.1), (" shelf", -0.7)))
        assert len(path.read_text().splitlines()) == 1

    def test_unparseable_entry_is_a_miss(self, tmp_path):
        # A NaN-logprob entry, as older versions stored, is asked again, and
        # the appended good reply is the one a later load returns.
        path = tmp_path / "cache.jsonl"
        request = req()
        key = request_digest(request.model, 0.0, request.system_text, request.user_text)
        ResponseCache(path).store(key, {"answer_text": "the shelf", "tokens": [["a", math.nan]],
                                        "model_echo": "m", "latency_ms": 1.0})
        with StubServer() as server:
            gateway = LLMGateway(make_config(server.base_url), cache=ResponseCache(path))
            result = gateway.complete(request)
            assert len(server.requests) == 1
        good = TokenLogprobs((("the", -0.1), (" shelf", -0.7)))
        assert result.answer_text == "the shelf"
        assert result.token_logprobs == good
        assert ResponseCache(path).lookup(key)["tokens"] == [list(t) for t in good.tokens]

    def test_second_identical_request_hits_cache(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache.jsonl")
        with StubServer() as server:
            gateway = LLMGateway(make_config(server.base_url), cache=cache)
            first = gateway.complete(req())
            second = gateway.complete(req())
            assert len(server.requests) == 1
        assert first == second

    def test_warm_cache_needs_no_network_or_credential(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with StubServer() as server:
            warm = LLMGateway(make_config(server.base_url), cache=ResponseCache(path))
            original = warm.complete(req())
        # fresh gateway, no key, unreachable endpoint: cache alone must answer
        cold = LLMGateway(make_config("http://127.0.0.1:1", api_key=None),
                          cache=ResponseCache(path))
        assert cold.complete(req()) == original

    def test_hit_reports_its_own_latency(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        request = req()
        key = request_digest(request.model, 0.0, request.system_text, request.user_text)
        ResponseCache(path).store(key, {"answer_text": "tool shed", "tokens": [["tool", -0.5]],
                                        "model_echo": "m", "latency_ms": 1e6})
        gateway = LLMGateway(make_config("http://127.0.0.1:1", api_key=None),
                             cache=ResponseCache(path))
        hit = gateway.complete(request)
        assert 0.0 <= hit.latency_ms < 1000.0
        assert hit.answer_text == "tool shed"
        assert hit.token_logprobs == TokenLogprobs((("tool", -0.5),))
        assert ResponseCache(path).lookup(key)["latency_ms"] == 1e6

    def test_lookup_before_store_misses(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache.jsonl")
        assert cache.lookup("deadbeef") is None

    def test_store_then_lookup_round_trips(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ResponseCache(path).store("k1", {"answer_text": "x", "tokens": [["a", -0.25]],
                                         "model_echo": "m", "latency_ms": 12.5})
        value = ResponseCache(path).lookup("k1")
        assert value == {"answer_text": "x", "tokens": [["a", -0.25]],
                         "model_echo": "m", "latency_ms": 12.5}

    def test_stored_line_holds_only_key_and_value(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ResponseCache(path).store("k1", {"v": 1})
        (line,) = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(line) == {"key": "k1", "value": {"v": 1}}

    def test_line_with_a_created_at_stamp_still_hits(self, tmp_path):
        # The format older versions wrote: same key and value, plus a stamp.
        path = tmp_path / "cache.jsonl"
        path.write_text('{"key":"k1","created_at":1700000000.5,"value":{"v":1}}\n',
                        encoding="utf-8")
        assert ResponseCache(path).lookup("k1") == {"v": 1}

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ResponseCache(path).store("k1", {"v": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "k2", "value": {"v"')  # crashed writer
        cache = ResponseCache(path)
        assert cache.lookup("k1") == {"v": 1}
        assert cache.lookup("k2") is None

    def test_failed_append_warns_and_keeps_entry_in_memory(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path)
        path.unlink()
        path.mkdir()  # appends to the cache file now fail
        with pytest.warns(UserWarning, match="append failed"):
            cache.store("k1", {"v": 1})
        assert cache.lookup("k1") == {"v": 1}

    def test_unwritable_path_degrades_to_memory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.warns(UserWarning, match="in-memory"):
            cache = ResponseCache(blocker / "cache.jsonl")
        cache.store("k", {"v": 1})
        assert cache.lookup("k") == {"v": 1}

    def test_concurrent_writers_both_readable(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        procs = [multiprocessing.Process(target=_append_entries, args=(str(path), prefix, 25))
                 for prefix in ("p1", "p2")]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)
        cache = ResponseCache(path)
        for prefix in ("p1", "p2"):
            for i in range(25):
                assert cache.lookup(f"{prefix}-{i}") == {"n": i}


def _append_entries(path, prefix, count):
    cache = ResponseCache(path)
    for i in range(count):
        cache.store(f"{prefix}-{i}", {"n": i})


class TestConcurrency:
    def test_gateway_safe_for_concurrent_use(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        with StubServer(dynamic=True) as server:
            gateway = LLMGateway(make_config(server.base_url),
                                 cache=ResponseCache(tmp_path / "c.jsonl"))
            prompts = [f"prompt number {i}" for i in range(12)]

            def fetch(text):
                return gateway.complete(req(user_text=text))

            with ThreadPoolExecutor(max_workers=8) as pool:
                concurrent = list(pool.map(fetch, prompts))
        # each caller got the answer for its own request, not a neighbor's
        for text, result in zip(prompts, concurrent):
            assert result.answer_text == text[:16]
        # and the cache replays all of them without the network
        cold = LLMGateway(make_config("http://127.0.0.1:1", api_key=None),
                          cache=ResponseCache(tmp_path / "c.jsonl"))
        for text, result in zip(prompts, concurrent):
            assert cold.complete(req(user_text=text)) == result


class TestDigest:
    def test_identical_content_same_key(self):
        a = request_digest("m", 0.0, "sys", "user")
        b = request_digest("m", 0.0, "sys", "user")
        assert a == b

    def test_any_field_change_changes_key(self):
        base = request_digest("m", 0.0, "sys", "user")
        assert request_digest("m2", 0.0, "sys", "user") != base
        assert request_digest("m", 0.5, "sys", "user") != base
        assert request_digest("m", 0.0, "sys2", "user") != base
        assert request_digest("m", 0.0, "sys", "user2") != base


class TestRequestTypes:
    def test_token_logprob_validation(self):
        with pytest.raises(ValueError):
            TokenLogprobs((("a", 0.5),))


@pytest.mark.live
@pytest.mark.skipif(os.environ.get("SEMSEARCH_LIVE_TEST") != "1",
                    reason="live API smoke test is opt-in (SEMSEARCH_LIVE_TEST=1)")
def test_live_endpoint_smoke():
    from semsearch.affinity import LLMScorer

    scorer = LLMScorer(LLMGateway(GatewayConfig.from_env()))
    score = scorer.score("screwdriver", "drill")
    assert isinstance(score, float)
    assert 0.0 < score <= 1.0
