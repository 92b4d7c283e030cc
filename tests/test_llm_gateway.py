import math
import multiprocessing
import os

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

from stub_server import StubServer, no_logprobs_completion, ok_completion


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
            with pytest.raises(ScorerError, match="non-finite raw score nan"):
                score_distribution(scorer, ["screwdriver"], "drill")


class TestCache:
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
