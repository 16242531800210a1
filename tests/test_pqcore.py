import pytest

from pqmkz.pqcore import PQPair, pq_int

PQ = PQPair(0.9, 0.8)
CLASSICAL = PQPair.classical()


class TestPQPair:
    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            PQPair(0.8, 0.9)
        with pytest.raises(ValueError):
            PQPair(1.1, 0.9)
        with pytest.raises(ValueError):
            PQPair(0.9, 0.0)
        with pytest.raises(ValueError):
            PQPair(0.9, 0.9)

    def test_classical_is_explicit(self):
        assert CLASSICAL.classical_mode
        assert CLASSICAL.log_tau == 0.0
        with pytest.raises(ValueError):
            PQPair(0.9, 0.8, classical_mode=True)


class TestPQInt:
    def test_zero(self):
        assert pq_int(0, PQ) == 0.0

    def test_one(self):
        assert pq_int(1, PQ) == pytest.approx(1.0, abs=1e-15)

    def test_three(self):
        # rational oracle: p^2 + p q + q^2 = 0.81 + 0.72 + 0.64
        assert pq_int(3, PQ) == pytest.approx(2.17, abs=1e-14)

    def test_classical(self):
        for n in range(20):
            assert pq_int(n, CLASSICAL) == n

    def test_q_calculus_reduction(self):
        pq = PQPair(1.0, 0.7)
        for n in range(1, 51):
            assert pq_int(n, pq) == pytest.approx(
                (1 - 0.7 ** n) / 0.3, abs=1e-14
            )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pq_int(-1, PQ)
