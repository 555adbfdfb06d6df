#!/usr/bin/env python3
"""Walk through speculative copying on a tiny word-level example.

A hand-built lookup model generates a sentence that reuses a phrase from
the prompt. We trace every attempt: which window matched, what chunk was
proposed from the earlier occurrence, how much of it the target accepted,
and the bonus token that keeps generation moving after a rejection.
"""

from copyspec import EngineConfig, Session, TableLM, Vocabulary, tokenize
from copyspec.corpus import EOT_ID, detokenize

PROMPT = (
    "the wood duck lives in wooded swamps and nests in tree holes near water "
    "now describe the wood duck habitat"
)
ANSWER = "the wood duck lives in wooded swamps and nests in tree holes near quiet ponds"

vocab = Vocabulary()
prompt_ids = tokenize(PROMPT, vocab)
answer_ids = tokenize(ANSWER, vocab)

# An order-2 chain: after the prompt, greedy decoding emits the answer.
chain = prompt_ids + answer_ids + [EOT_ID]
table = {tuple(chain[j - 2:j]): chain[j] for j in range(2, len(chain))}
target = TableLM(vocab_size=len(vocab), order=2, table=table, fallback=EOT_ID)

config = EngineConfig(strategy="copy", gamma=3, chunk_len=10)
session = Session(target, None, config)
session.extend_context(prompt_ids)

print("PROMPT:", PROMPT)
print(f"\ngamma={config.gamma}, chunk_len={config.chunk_len}\n")

budget = 64
outcomes = []
produced = 0
while produced < budget:
    before = len(session.context)
    outcome = session.step(budget - produced)
    outcomes.append(outcome)
    produced += outcome.accepted_k + 1
    step = len(outcomes)
    added = session.context[before:]
    if outcome.source == "copy":
        accepted = detokenize(added[:-1], vocab)
        print(f"step {step:2d} COPY  proposed {outcome.proposed:2d} accepted {outcome.accepted_k:2d}"
              f"  [{accepted}]  bonus -> {detokenize(session.context[-1:], vocab)!r}")
    else:
        print(f"step {step:2d} plain -> {detokenize(session.context[-1:], vocab)!r}")
    if session.context[-1] == EOT_ID:
        break

output = session.context[len(prompt_ids):]
if output and output[-1] == EOT_ID:
    output = output[:-1]
print("\nOUTPUT:", detokenize(output, vocab))
print("\nAttempts:", len(outcomes),
      "| copied tokens:", sum(o.accepted_k for o in outcomes if o.source == "copy"),
      "| total tokens:", produced)
print("The same text decoded token by token would take", produced, "attempts.")
