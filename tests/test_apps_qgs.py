"""Unit tests for the quantum genome sequencing accelerator."""

import math

import numpy as np
import pytest

from repro.algorithms.grover import classical_search_queries
from repro.apps.qgs.associative_memory import QuantumAssociativeMemory
from repro.apps.qgs.classical_alignment import ClassicalAligner, IndexedAligner
from repro.apps.qgs.dna import (
    ArtificialGenome,
    Read,
    decode_sequence,
    encode_sequence,
    hamming_distance,
)
from repro.apps.qgs.microarchitecture import QGSMicroArchitecture
from repro.apps.qgs.quantum_alignment import QuantumAligner


class TestDNA:
    def test_encode_decode_round_trip(self):
        for sequence in ("A", "ACGT", "GATTACA", "TTTTCCCC"):
            assert decode_sequence(encode_sequence(sequence), len(sequence)) == sequence

    def test_encode_rejects_invalid_base(self):
        with pytest.raises(ValueError):
            encode_sequence("ACGX")

    def test_encoding_is_order_preserving(self):
        assert encode_sequence("AA") < encode_sequence("AC") < encode_sequence("TT")

    def test_hamming_distance(self):
        assert hamming_distance("ACGT", "ACGT") == 0
        assert hamming_distance("ACGT", "ACGA") == 1
        with pytest.raises(ValueError):
            hamming_distance("ACG", "ACGT")

    def test_genome_reproducible_and_correct_length(self):
        a = ArtificialGenome(128, seed=1)
        b = ArtificialGenome(128, seed=1)
        assert a.sequence == b.sequence
        assert len(a.sequence) == 128
        assert set(a.sequence) <= set("ACGT")

    def test_genome_statistics_are_plausible(self):
        genome = ArtificialGenome(2000, seed=2)
        assert 0.3 < genome.gc_content() < 0.6
        # Dinucleotide entropy below the 4-bit maximum but well above zero.
        assert 3.0 < genome.shannon_entropy(order=2) < 4.0

    def test_cpg_suppression_reflected_in_dinucleotides(self):
        genome = ArtificialGenome(5000, seed=3)
        sequence = genome.sequence
        cg = sum(1 for i in range(len(sequence) - 1) if sequence[i : i + 2] == "CG")
        gc = sum(1 for i in range(len(sequence) - 1) if sequence[i : i + 2] == "GC")
        assert cg < gc  # CpG suppression

    def test_slice_reference_indexing(self):
        genome = ArtificialGenome(20, seed=4)
        for slices in (
            ClassicalAligner(genome.sequence, 5).slices,
            QuantumAligner(genome.sequence, 5, seed=1).memory.slices,
        ):
            assert len(slices) == 16
            assert slices[3] == genome.sequence[3:8]
        with pytest.raises(ValueError):
            QuantumAligner(genome.sequence, 21)

    def test_sample_read_error_injection(self):
        genome = ArtificialGenome(100, seed=5)
        clean = genome.sample_read(10, error_rate=0.0)
        assert clean.errors == 0
        assert genome.sequence[clean.true_position : clean.true_position + 10] == clean.sequence
        noisy_reads = genome.sample_reads(50, 10, error_rate=0.3)
        assert sum(read.errors for read in noisy_reads) > 0

    def test_qubits_required_matches_address_plus_data(self):
        genome = ArtificialGenome(64, seed=6)
        assert genome.qubits_required(8) == math.ceil(math.log2(57)) + 16

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ArtificialGenome(2)
        genome = ArtificialGenome(10, seed=7)
        with pytest.raises(ValueError):
            genome.sample_read(11)


class TestAssociativeMemory:
    def test_rejects_empty_or_ragged_input(self):
        with pytest.raises(ValueError):
            QuantumAssociativeMemory([])
        with pytest.raises(ValueError):
            QuantumAssociativeMemory(["ACG", "ACGT"])

    def test_superposition_has_one_amplitude_per_entry(self):
        slices = ["ACG", "CGT", "GTA", "TAC"]
        memory = QuantumAssociativeMemory(slices, rng=np.random.default_rng(1))
        amplitudes = memory.amplitudes()
        nonzero = np.nonzero(np.abs(amplitudes) > 1e-12)[0]
        assert len(nonzero) == 4
        np.testing.assert_allclose(np.abs(amplitudes[nonzero]), 0.5, atol=1e-12)

    def test_qubit_budget_enforced(self):
        with pytest.raises(ValueError):
            QuantumAssociativeMemory(["A" * 16, "C" * 16])

    def test_capacity_advantage_grows_with_entries(self):
        def classical_bits_per_qubit(memory):
            return memory.num_entries * 2 * memory.slice_length / memory.total_qubits

        small = QuantumAssociativeMemory(["ACGT"] * 2)
        large = QuantumAssociativeMemory(["ACGT"] * 2 + ["AAAA", "CCCC", "GGGG", "TTTT"])
        assert (small.total_qubits, large.total_qubits) == (9, 11)
        assert classical_bits_per_qubit(large) > classical_bits_per_qubit(small)

    def test_marked_addresses_with_tolerance(self):
        """The oracle marks the entries nearest the query; the tolerance only
        widens when no entry is within the requested mismatches."""
        aligner = QuantumAligner("AAAATCCCC", 4, seed=1)
        assert aligner.memory.slices[:2] == ["AAAA", "AAAT"]
        exact = aligner.align("AAAA", max_mismatches=0)
        assert exact.mismatches_allowed == 0
        assert exact.classical_queries_equivalent == classical_search_queries(6, 1)
        assert aligner.align("AAAA", max_mismatches=1).classical_queries_equivalent == (
            classical_search_queries(6, 1)
        )
        widened = aligner.align("AAAC", max_mismatches=0)
        assert widened.mismatches_allowed == 1
        # AAAA, AAAT and AATC are each one mismatch from AAAC.
        assert widened.classical_queries_equivalent == classical_search_queries(6, 3)
        with pytest.raises(ValueError):
            aligner.align("AAA", max_mismatches=0)

    def test_oracle_flips_only_marked_entries(self):
        slices = ["AA", "AC", "CA"]
        memory = QuantumAssociativeMemory(slices)
        flipped = memory.oracle_phase_flip(memory.amplitudes(), [1])
        original = memory.amplitudes()
        differences = np.nonzero(~np.isclose(flipped, original))[0]
        assert len(differences) == 1

    def test_measure_address_returns_valid_index(self):
        slices = ["ACG", "CGT", "GTA"]
        memory = QuantumAssociativeMemory(slices, rng=np.random.default_rng(2))
        address = memory.measure_address(memory.amplitudes())
        assert 0 <= address < 4  # 2 address qubits


class TestQuantumAligner:
    @pytest.fixture(scope="class")
    def genome(self):
        return ArtificialGenome(40, seed=11)

    @pytest.fixture(scope="class")
    def aligner(self, genome):
        return QuantumAligner(genome.sequence, read_length=6, seed=12)

    def test_error_free_reads_align_correctly(self, genome, aligner):
        reads = genome.sample_reads(8, 6, error_rate=0.0)
        results = aligner.align_all(reads, max_mismatches=0)
        assert aligner.accuracy(results) == 1.0
        for result in results:
            assert result.success_probability > 0.5

    def test_noisy_reads_still_align(self, genome, aligner):
        reads = genome.sample_reads(6, 6, error_rate=0.08)
        results = aligner.align_all(reads, max_mismatches=1)
        assert aligner.accuracy(results) >= 0.5

    def test_oracle_queries_scale_as_sqrt_of_database(self, genome, aligner):
        read = genome.sample_read(6, error_rate=0.0)
        result = aligner.align(read)
        assert result.oracle_queries <= math.ceil(math.sqrt(aligner.database_size)) + 1
        assert result.classical_queries_equivalent > result.oracle_queries

    def test_rejects_wrong_read_length(self, aligner):
        with pytest.raises(ValueError):
            aligner.align("ACGT")

    def test_tolerance_widens_until_match(self, aligner):
        # A read that matches nothing exactly: tolerance must grow.
        result = aligner.align("AAAAAA", max_mismatches=0)
        assert result.mismatches_allowed >= 0
        assert 0 <= result.reported_position < aligner.database_size


class TestClassicalAligners:
    @pytest.fixture(scope="class")
    def genome(self):
        return ArtificialGenome(200, seed=21)

    def test_exhaustive_aligner_perfect_on_clean_reads(self, genome):
        aligner = ClassicalAligner(genome.sequence, 12)
        reads = genome.sample_reads(20, 12, error_rate=0.0)
        results = aligner.align_all(reads)
        assert all(r.correct for r in results)
        assert all(r.mismatches == 0 for r in results)

    def test_exhaustive_aligner_comparisons_bounded_by_database(self, genome):
        aligner = ClassicalAligner(genome.sequence, 12)
        read = genome.sample_read(12, error_rate=0.2)
        result = aligner.align(read)
        assert result.comparisons <= aligner.database_size

    def test_indexed_aligner_single_lookup_for_exact_reads(self, genome):
        aligner = IndexedAligner(genome.sequence, 12)
        read = genome.sample_read(12, error_rate=0.0)
        result = aligner.align(read)
        assert result.correct
        assert result.comparisons == 1

    def test_indexed_aligner_falls_back_on_errors(self, genome):
        aligner = IndexedAligner(genome.sequence, 12)
        read = Read(sequence="A" * 12, true_position=-1)
        result = aligner.align(read)
        assert result.comparisons > 1


class TestQGSMicroArchitecture:
    def test_batch_report_accounts_everything(self):
        genome = ArtificialGenome(40, seed=31)
        microarch = QGSMicroArchitecture(genome.sequence, read_length=6, seed=32)
        reads = genome.sample_reads(5, 6, error_rate=0.05)
        report = microarch.align_batch(reads)
        assert report.reads_processed == 5
        assert report.accuracy >= 0.6
        assert report.total_oracle_queries > 0
        assert report.quantum_speedup_in_queries > 1.0
        assert report.estimated_runtime_ns > 0
        assert report.local_memory_bytes == (40 * 2 + 7) // 8
        assert report.queue_max_depth == 5

    def test_empty_batch(self):
        genome = ArtificialGenome(30, seed=33)
        microarch = QGSMicroArchitecture(genome.sequence, read_length=5, seed=34)
        report = microarch.align_batch([])
        assert report.reads_processed == 0
        assert report.accuracy == 0.0
