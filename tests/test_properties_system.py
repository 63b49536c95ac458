"""System-level property tests (hypothesis).

Two invariants that must hold for *any* access pattern:

* **LCF read-modify-write correctness** — arbitrary sequences of aligned
  writes of arbitrary sizes into the ciphered+authenticated window always
  read back exactly what a plain byte-array shadow model predicts, and the
  external memory never contains the plaintext of what was written.
* **Bus arbitration fairness/consistency** — any interleaving of requests
  from multiple masters completes every transaction exactly once, in
  bounded time, with the monitor seeing exactly the granted set.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.transaction import BusOperation, BusTransaction, TransactionStatus

from tests.conftest import build_figure1


# One write: (word offset within a 256-byte window, length in words 1..8)
write_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=56), st.integers(min_value=1, max_value=8)),
    min_size=1,
    max_size=6,
)


class TestProtectedMemoryReadModifyWrite:
    @given(ops=write_ops, seed=st.integers(min_value=0, max_value=255))
    @settings(max_examples=10, deadline=None)
    def test_arbitrary_write_sequences_read_back_exactly(self, ops, seed):
        system, security = build_figure1()
        cfg = system.config
        window = cfg.ddr_base
        shadow = bytearray(256)

        for index, (word_offset, n_words) in enumerate(ops):
            n_words = min(n_words, 64 - word_offset)
            address = window + 4 * word_offset
            payload = bytes(((seed + index + i) % 251) for i in range(4 * n_words))
            shadow[4 * word_offset : 4 * word_offset + len(payload)] = payload
            txn = BusTransaction(master="cpu0", operation=BusOperation.WRITE,
                                 address=address, width=4, burst_length=n_words,
                                 data=payload)
            system.master_ports["cpu0"].issue(txn, lambda t: None)
            system.run()
            assert txn.status is TransactionStatus.COMPLETED
            # The freshly written plaintext never appears raw in the DDR.
            if any(payload):
                assert system.ddr.peek(address, len(payload)) != payload

        # Read the whole window back (in policy-sized bursts of 16 words) and
        # compare against the shadow model.
        collected = bytearray()
        for chunk in range(4):
            readback = BusTransaction(master="cpu0", operation=BusOperation.READ,
                                      address=window + 64 * chunk, width=4, burst_length=16)
            system.master_ports["cpu0"].issue(readback, lambda t: None)
            system.run()
            assert readback.status is TransactionStatus.COMPLETED
            collected += readback.data
        assert bytes(collected) == bytes(shadow)
        assert security.monitor.count() == 0


class TestBusArbitrationProperties:
    @given(
        requests=st.lists(
            st.tuples(st.sampled_from(["cpu0", "cpu1", "cpu2"]),
                      st.integers(min_value=0, max_value=63)),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_every_request_completes_exactly_once(self, requests):
        system, _ = build_figure1(protected=False)
        cfg = system.config
        completions = []
        for master, slot in requests:
            txn = BusTransaction(master=master, operation=BusOperation.READ,
                                 address=cfg.bram_base + 4 * slot, width=4)
            system.master_ports[master].issue(
                txn, lambda t: completions.append(t.txn_id)
            )
        system.run()
        assert len(completions) == len(requests)
        assert len(set(completions)) == len(requests)
        assert system.bus.monitor.count() == len(requests)
        assert system.bus.pending_count() == 0

    @given(n_per_master=st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_round_robin_never_starves_a_master(self, n_per_master):
        system, _ = build_figure1(protected=False)
        cfg = system.config
        order = []
        for _ in range(n_per_master):
            for master in ("cpu0", "cpu1", "cpu2"):
                txn = BusTransaction(master=master, operation=BusOperation.READ,
                                     address=cfg.bram_base, width=4)
                system.master_ports[master].issue(
                    txn, lambda t, m=master: order.append(m)
                )
        system.run()
        # In any window of three consecutive grants every master appears once:
        # round robin with three equally-loaded masters is perfectly fair.
        for start in range(0, len(order) - 2, 3):
            assert set(order[start : start + 3]) == {"cpu0", "cpu1", "cpu2"}
