#!/usr/bin/env python3
"""Watching a KDC cluster saturate — with every request's story intact.

Drives the sharded KDC with the traced load harness while one shard is
down for the middle third of the run, then answers the questions a
latency percentile cannot:

* which shard was hot, and was the time queueing or crypto?
* what did the cluster look like tick by tick as the outage hit?
* for a login the outage refused — what happened to it, hop by hop,
  and how did its retry get through?

Every client call is one causal trace: client rpc -> frontend ->
shard -> worker -> replay-cache check.  A shard outage does not break
the chain: the refused call is a complete trace that ends in the
frontend's ``unavailable``, and the retry, made after a backoff on the
scheduler, is a trace of its own.

Run:  python examples/cluster_tracing.py
"""

from repro.monitor import render_monitor, render_trace_tree, run_monitor


def main() -> None:
    print("driving the sharded KDC with tracing on "
          "(one shard down mid-run)...\n")
    report = run_monitor(quick=True, seed=0, top_n=3)
    print(render_monitor(report, show_tree_for=0))
    print()

    # Find a login that lived through the outage: from one workstation,
    # AS calls the downed shard refused, then the retry that landed.
    as_calls = {}
    for spans in report["_tracer"].traces().values():
        root = next(s for s in spans if s.parent_id == 0)
        if root.name == "rpc/kerberos":
            as_calls.setdefault(root.attrs["client"], []).append(spans)

    def refused(spans):
        return any("error" in s.attrs for s in spans)

    client, calls = next(
        (client, calls) for client, calls in as_calls.items()
        if refused(calls[0]) and not refused(calls[-1])
    )
    first, served = calls[0], calls[-1]
    gap = served[0].begin - first[0].end
    print(f"== anatomy of a rescued login (workstation {client}) ==")
    print(f"{len(calls)} AS calls, each its own trace, with a backoff on "
          f"the scheduler before each retry; the first "
          f"(trace {first[0].trace_id}) was refused:")
    print("\n".join(render_trace_tree(first)))
    print(f"the last (trace {served[0].trace_id}), begun {gap:,}us after "
          "the first ended, was served:")
    print("\n".join(render_trace_tree(served)))
    print()

    problems = report["traces"]["problems"]
    print(f"structural check over all {report['traces']['sampled']} traces: "
          + ("\n".join(problems) if problems else
             "one rooted trace per request, even across a shard outage"))


if __name__ == "__main__":
    main()
