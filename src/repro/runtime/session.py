"""End-to-end inference sessions: the PS-side "Tokenizer & Decode Program".

Both sessions are now thin adapters over the unified execution engine
(:mod:`repro.engine`): :class:`InferenceSession` wraps a single-request
:class:`~repro.engine.scheduler.ContinuousBatchScheduler` over the
functional backend, so the exact same admission / prefill / decode /
retire machinery serves one chat user here and a whole synthetic trace
in ``repro serve-sim``.  The public API — ``generate`` returning a
:class:`SessionResult`, ``ChatSession.say`` with history truncation —
is unchanged, token for token.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import KV260, PlatformConfig
from ..core.accelerator import Accelerator, DecodePerf
from ..engine.backends import FunctionalBackend
from ..engine.request import Request
from ..engine.scheduler import ContinuousBatchScheduler
from ..errors import CapacityError, SimulationError
from ..model.sampler import Sampler
from ..model.tokenizer import ByteTokenizer
from .baremetal import BareMetalSystem


@dataclass
class SessionResult:
    """Text plus performance of one generation."""

    prompt: str
    completion: str
    tokens: list[int]
    perf: DecodePerf


class ChatSession:
    """Multi-turn chat on top of :class:`InferenceSession`.

    The bare-metal system keeps its KV cache resident between turns; this
    wrapper reproduces that usage: history accumulates in token space and
    each turn prefix-extends it, truncating from the front (oldest turns
    first) when the context reservation would overflow — the policy a
    1024-token device actually needs.
    """

    def __init__(self, session: "InferenceSession",
                 reserve_for_reply: int = 32) -> None:
        if reserve_for_reply <= 0:
            raise SimulationError("reply reservation must be positive")
        self.session = session
        self.reserve_for_reply = reserve_for_reply
        self.history_tokens: list[int] = []
        self.turns: list[SessionResult] = []

    @property
    def max_context(self) -> int:
        return self.session.accelerator.model_config.max_context

    def _truncate_history(self, new_tokens: int) -> None:
        budget = self.max_context - self.reserve_for_reply - new_tokens
        if budget < 0:
            raise SimulationError(
                f"single turn of {new_tokens} tokens exceeds the context"
            )
        if len(self.history_tokens) > budget:
            self.history_tokens = self.history_tokens[-budget:] if budget \
                else []

    def say(self, text: str, max_new_tokens: int | None = None,
            ) -> SessionResult:
        """One chat turn: append user text, generate, keep the exchange."""
        tokenizer = self.session.tokenizer
        if max_new_tokens is None:
            max_new_tokens = self.reserve_for_reply
        user_tokens = tokenizer.encode(text, add_bos=not self.history_tokens)
        self._truncate_history(len(user_tokens))
        prompt = self.history_tokens + user_tokens

        tokens, perf = self.session.generate_tokens(prompt, max_new_tokens)
        if tokenizer.eos_id in tokens:
            tokens = tokens[: tokens.index(tokenizer.eos_id)]
        result = SessionResult(prompt=text,
                               completion=tokenizer.decode(tokens),
                               tokens=tokens, perf=perf)
        self.history_tokens = prompt + tokens
        self.turns.append(result)
        return result


class InferenceSession:
    """Tokenize -> engine request -> detokenize, with timing."""

    def __init__(self, qweights, platform: PlatformConfig = KV260,
                 sampler: Sampler | None = None,
                 check_capacity: bool = True) -> None:
        config = qweights.config
        if config.vocab_size < ByteTokenizer().vocab_size:
            raise SimulationError(
                f"model vocab {config.vocab_size} too small for the byte "
                "tokenizer"
            )
        if check_capacity:
            system = BareMetalSystem(platform)
            report = system.capacity_report(config, qweights.quant,
                                            config.max_context)
            if not report.fits:
                raise CapacityError(
                    f"{config.name} at context {config.max_context} needs "
                    f"{report.total_bytes} B but {platform.name} has "
                    f"{platform.dram_bytes} B"
                )
        self.tokenizer = ByteTokenizer(config.vocab_size)
        self.sampler = sampler
        self.accelerator = Accelerator.from_quantized_weights(
            qweights, platform)
        # The session IS a one-slot engine: same scheduler, batch of one.
        self._backend = FunctionalBackend(
            qweights, platform, n_slots=1,
            functional=self.accelerator.functional)
        self._engine = ContinuousBatchScheduler(
            self._backend, max_batch=1,
            kv_token_budget=config.max_context)
        self._next_request_id = 0

    def generate_tokens(self, prompt_tokens: list[int],
                        max_new_tokens: int,
                        ) -> tuple[list[int], DecodePerf]:
        """Run one engine request; returns raw tokens (EOS included) + perf.

        Timing stops at a sampled EOS — post-EOS steps are never charged,
        so the perf record matches the tokens callers actually keep.
        """
        perf = DecodePerf(
            prompt_len=len(prompt_tokens),
            new_tokens=0,
            prefill_cycles=0.0,
            freq_hz=self.accelerator.platform.pl_freq_hz,
            theoretical_tokens_per_s=(
                self.accelerator.theoretical_tokens_per_s()),
        )
        if max_new_tokens <= 0:
            # Nothing to generate, but the prompt was still prefilled.
            perf.prefill_cycles = self.accelerator.cycles.prefill_cycles(
                len(prompt_tokens))
            return [], perf
        request = Request(
            request_id=self._next_request_id,
            prompt=tuple(prompt_tokens),
            max_new_tokens=max_new_tokens,
            sampler=self.sampler,
            eos_id=self.tokenizer.eos_id,
        )
        self._next_request_id += 1
        state = self._engine.submit(request)
        self._engine.run()
        perf.new_tokens = state.n_generated
        perf.prefill_cycles = state.prefill_cycles
        # One request at batch one: every decode step is this request's.
        perf.decode_cycles = [event.cycles for event in self._engine.events
                              if event.batch]
        return list(state.generated), perf

    def generate(self, prompt: str, max_new_tokens: int = 32,
                 ) -> SessionResult:
        """Generate a completion for ``prompt``; returns text + perf."""
        ids = self.tokenizer.encode(prompt)
        max_ctx = self.accelerator.model_config.max_context
        if len(ids) >= max_ctx:
            raise SimulationError(
                f"prompt of {len(ids)} tokens fills the {max_ctx}-token "
                "context"
            )
        tokens, perf = self.generate_tokens(ids, max_new_tokens)
        # Stop at EOS like the bare-metal decode loop does.
        if self.tokenizer.eos_id in tokens:
            tokens = tokens[: tokens.index(self.tokenizer.eos_id)]
        return SessionResult(
            prompt=prompt,
            completion=self.tokenizer.decode(tokens),
            tokens=tokens,
            perf=perf,
        )
