"""The CLI's construct -> write -> verify round trip pays each cost once.

The matrix writer formats each distinct number once and must give the bytes
of the plain one-repr-per-entry writer kept below; the reader's pair check
keeps its messages; a constructed state is decomposed once, by the PSD
check of its `DensityMatrix`, and `verify` decomposes the file's matrix
once, in float64 when its imaginary part is exactly zero.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

import qmarginals as qm
from qmarginals import DensityMatrix, fileio
from qmarginals.cli import main
from qmarginals.tensorcore import _eigvalsh

from conftest import FIXTURES


def reference_matrix_text(matrix, dims) -> str:
    """The matrix file text with every float formatted by its own repr call."""
    m = np.asarray(matrix, dtype=complex)
    numbers = iter(map(float.__repr__, m.ravel().view(float).tolist()))
    pairs = "],\n [".join(map(", ".join, zip(numbers, numbers)))
    return f'{{"dims": {json.dumps(list(dims))}, "entries": [\n [{pairs}]\n]}}\n'


def rank_6x8_marginals():
    return [np.diag(fileio.read_spectrum(FIXTURES / f"rank_6x8/spectrum_{side}.json"))
            .astype(complex) for side in "ab"]


def roots_state():
    """The roots-of-unity state at k = 30 on rank_6x8: 83 distinct numbers in 4,608."""
    return qm.rank_sweep(*rank_6x8_marginals(), 30).matrix


SIGNED_ZEROS = np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)],
                         [complex(-0.0, 0.0), complex(0.0, 0.0)]])
TINY_AND_HUGE = np.array([[5e-324, complex(1e308, -5e-324)],
                          [complex(-1e308, 5e-324), -5e-324]])
INTEGER_VALUED = np.array([[3.0, complex(-2.0, 1.0)], [complex(-2.0, -1.0), 1e16]])


WRITER_CASES = {
    "roots": (roots_state(), (6, 8)),
    **{f"density-{n}": (qm.random_density(dims, 5).matrix, dims)
       for n, dims in [(1, (1,)), (4, (2, 2)), (48, (6, 8))]},
    **{f"unitary-{n}": (qm.random_unitary(n, 5), (n,)) for n in (1, 4, 48)},
    "signed-zeros": (SIGNED_ZEROS, (2,)),
    "tiny-and-huge": (TINY_AND_HUGE, (2,)),
    "integer-valued": (INTEGER_VALUED, (2,)),
    "transposed-view": (qm.random_unitary(6, 2).T, (2, 3)),
}


class TestWriterFormatsEachDistinctNumberOnce:
    @pytest.mark.parametrize("matrix,dims", WRITER_CASES.values(), ids=list(WRITER_CASES))
    def test_bytes_equal_the_one_repr_per_entry_writer(self, tmp_path, matrix, dims):
        path = tmp_path / "m.json"
        fileio.write_matrix(path, matrix, dims)
        assert path.read_text() == reference_matrix_text(matrix, dims)

    def test_signed_zeros_keep_their_sign(self, tmp_path):
        path = tmp_path / "m.json"
        fileio.write_matrix(path, SIGNED_ZEROS, (2,))
        pairs = [line.strip().rstrip(",") for line in path.read_text().splitlines()[1:5]]
        assert pairs == ["[-0.0, -0.0]", "[0.0, -0.0]", "[-0.0, 0.0]", "[0.0, 0.0]"]

    def test_a_density_matrix_is_written_as_its_matrix(self, tmp_path):
        rho = qm.random_density((2, 3), 8)
        path = tmp_path / "m.json"
        fileio.write_matrix(path, rho, (2, 3))
        assert path.read_text() == reference_matrix_text(rho.matrix, (2, 3))
        assert np.array_equal(fileio.read_matrix(path)[0], rho.matrix)


PAIRS_ERROR = r"entries must be \[re, im\] pairs of floats$"


class TestReaderPairCheck:
    @pytest.mark.parametrize("entry", ["[1, 0, 0]", "5", '{"a": 1, "b": 2}', "true", '"ab"'],
                             ids=["triple", "scalar", "dict", "bool", "string"])
    @pytest.mark.parametrize("at", [0, 3])
    def test_a_bad_entry_anywhere_keeps_the_message(self, tmp_path, entry, at):
        entries = ["[0.5, 0]", "[0, 0]", "[0, 0]", "[0.5, 0]"]
        entries[at] = entry
        path = tmp_path / "m.json"
        path.write_text(f'{{"dims": [2], "entries": [{", ".join(entries)}]}}')
        with pytest.raises(ValueError, match=f"{path.name}: {PAIRS_ERROR}"):
            fileio.read_matrix(path)


def count_decompositions(monkeypatch, n):
    """Record every eigvalsh and eigh of an n x n matrix from now on."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            if np.shape(a) == (n, n):
                calls.append(_name)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestOneDecompositionPerState:
    def test_construct_sweep_and_verify_decompose_the_state_once_each(self, tmp_path,
                                                                     monkeypatch):
        for side, m in zip("ab", rank_6x8_marginals()):
            fileio.write_matrix(tmp_path / f"{side}.json", m, (len(m),))
        marginals = ["--marginal", f"1:{tmp_path / 'a.json'}",
                     "--marginal", f"2:{tmp_path / 'b.json'}"]
        runner = CliRunner()
        calls = count_decompositions(monkeypatch, 48)
        result = runner.invoke(main, ["construct", "sweep", "--k", "30", *marginals,
                                      "--out", str(tmp_path / "out")], catch_exceptions=False)
        assert result.exit_code == 0 and "rank: 30" in result.output
        assert calls == ["eigvalsh"]
        calls.clear()
        result = runner.invoke(main, ["verify", str(tmp_path / "out/solution.json"),
                                      "--dims", "6,8", *marginals], catch_exceptions=False)
        assert result.exit_code == 0 and "solution verified" in result.output
        assert calls == ["eigvalsh"]

    def test_the_state_keeps_the_eigenvalues_of_its_psd_check(self):
        x = roots_state()
        rho = DensityMatrix(x, (6, 8))
        assert np.array_equal(rho._eigenvalues, _eigvalsh(rho.matrix))
        assert not rho._eigenvalues.flags.writeable
        assert DensityMatrix(rho)._eigenvalues is rho._eigenvalues
        with pytest.raises(AttributeError):
            rho._eigenvalues = np.zeros(48)

    def test_real_decomposition_only_when_the_imaginary_part_is_exactly_zero(self):
        rho = qm.random_density((2, 3), 3).matrix
        assert np.array_equal(_eigvalsh(rho), np.linalg.eigvalsh(rho))
        real = roots_state()
        assert np.array_equal(_eigvalsh(real), np.linalg.eigvalsh(real.real))

    def test_a_state_whose_real_part_is_psd_is_still_checked_whole(self, tmp_path):
        # eigenvalues (1 - 2)/2 and (1 + 2)/2; the real part I/2 is PSD
        m = np.array([[0.5, 1j], [-1j, 0.5]])
        with pytest.raises(ValueError, match="not PSD, min eigenvalue -0.5"):
            DensityMatrix(m)
        # verify reads it as a state on two qubits, whose marginal I/2 on
        # qubit 2 is a state: the --marginal files must be PSD
        path, half = tmp_path / "m.json", tmp_path / "half.json"
        fileio.write_matrix(path, np.kron(m, np.eye(2) / 2), (2, 2))
        fileio.write_matrix(half, np.eye(2) / 2, (2,))
        result = CliRunner().invoke(main, ["verify", str(path), "--dims", "2,2",
                                           "--marginal", f"2:{half}"])
        assert result.exit_code == 1 and "psd: FAIL" in result.output
