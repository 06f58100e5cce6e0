"""Generator determinism, config validation, and effect direction."""

import dataclasses
import json

import numpy as np
import pytest

from novascape.corpus import FilterConfig, apply_filters, write_records_csv
from novascape.errors import ConfigError
from novascape.metrics import score_corpus
from novascape.synth import GENRES, SynthConfig, generate_corpus


def small_config(**over):
    base = dict(
        dimension=12,
        year_start=2006,
        year_end=2010,
        games_per_year=60,
        crowdfunded_share_by_year=0.3,
        seed=7,
    )
    base.update(over)
    return SynthConfig(**base)


class TestConfig:
    def test_defaults_valid(self):
        cfg = SynthConfig()
        assert cfg.dimension == 51
        assert cfg.shares()[2006] == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dimension": 0},
            {"games_per_year": 0},
            {"year_end": 2000, "year_start": 2006},
            {"base_mechanism_rate": 1.5},
            {"recombination_rate": -0.1},
            {"novelty_boost": -1.0},
            {"crowdfunded_share_by_year": 2.0},
            {"novelty_boost": float("nan")},
            {"base_mutation_bits": float("inf")},
            {"novelty_boost": float("inf")},
            {"base_mutation_bits": float("nan")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            small_config(**kwargs)

    def test_share_map_must_cover_all_years(self):
        with pytest.raises(ConfigError):
            small_config(crowdfunded_share_by_year={2006: 0.1}).shares()

    def test_json_round_trip(self):
        cfg = small_config(crowdfunded_share_by_year={y: 0.2 for y in range(2006, 2011)})
        back = SynthConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back.shares() == cfg.shares()
        assert back.seed == cfg.seed


class TestGeneration:
    def test_shape_and_ranges(self):
        cfg = small_config()
        rs = generate_corpus(cfg)
        assert len(rs) == 5 * 60
        years = sorted({r.year for r in rs})
        assert years == list(range(2006, 2011))
        for rec in rs:
            assert len(rec.vector) == 12
            assert rec.num_ratings >= 10
            assert rec.team_size >= 1
            assert rec.genre in GENRES
            assert rec.min_players <= rec.max_players

    def test_deterministic_bytes(self, tmp_path):
        cfg = small_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(generate_corpus(cfg), p1)
        write_records_csv(generate_corpus(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(generate_corpus(small_config(seed=1)), p1)
        write_records_csv(generate_corpus(small_config(seed=2)), p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_share_roughly_respected(self):
        rs = generate_corpus(small_config(games_per_year=400, crowdfunded_share_by_year=0.3))
        share = np.mean([r.crowdfunded for r in rs])
        assert 0.25 < share < 0.35

    def test_filters_keep_nearly_everything(self):
        rs = generate_corpus(SynthConfig(games_per_year=200, year_end=2010, seed=3))
        kept, report = apply_filters(rs, FilterConfig())
        assert report.output_count >= 0.98 * report.input_count

    def test_boost_raises_crowdfunded_novelty(self):
        cfg = SynthConfig(
            dimension=51,
            year_start=2006,
            year_end=2013,
            games_per_year=250,
            crowdfunded_share_by_year=0.3,
            novelty_boost=2.0,
            seed=11,
        )
        rs = generate_corpus(cfg)
        table = score_corpus(rs, spans=(2,))
        by_id = rs.by_id
        cf = [r.novelty_count for r in table if by_id[r.record_id].crowdfunded]
        trad = [r.novelty_count for r in table if not by_id[r.record_id].crowdfunded]
        assert np.mean(cf) > np.mean(trad)

    def test_controls_independent_of_funding(self):
        # same seed, boost changes only vectors, never the control stream
        rs0 = generate_corpus(small_config(novelty_boost=0.0))
        rs2 = generate_corpus(small_config(novelty_boost=2.0))
        for a, b in zip(rs0, rs2):
            assert a.genre == b.genre
            assert a.team_size == b.team_size
            assert a.complexity == b.complexity
            assert a.crowdfunded == b.crowdfunded

    def test_controls_identical_field_by_field_across_boosts(self):
        # the boost moves flip counts only; a vectorised control draw must not
        # depend on how many rows recombine or how many bits they flip
        cfg = dict(dimension=51, games_per_year=300, year_end=2012, seed=5)
        rs0 = generate_corpus(small_config(novelty_boost=0.0, **cfg))
        rs2 = generate_corpus(small_config(novelty_boost=2.0, **cfg))
        names = [f.name for f in dataclasses.fields(rs0[0]) if f.name != "vector"]
        assert len(names) == 15  # id, year, crowdfunded, eleven controls, parent_id
        assert len(rs0) == len(rs2) == 7 * 300
        for a, b in zip(rs0, rs2):
            assert [getattr(a, n) for n in names] == [getattr(b, n) for n in names]
        assert not np.array_equal(rs0.matrix, rs2.matrix)


class TestRecombinationStructure:
    def _check_post_burn_in(self, rs, transform):
        for year in range(2008, 2011):
            window = (rs.years >= year - 2) & (rs.years < year)
            pool = {row.tobytes() for row in rs.matrix[window]}
            for row in rs.matrix[rs.years == year]:
                assert transform(row).tobytes() in pool

    def test_zero_mutation_copies_a_vector_from_the_two_previous_years(self):
        rs = generate_corpus(small_config(recombination_rate=1.0, base_mutation_bits=0.0,
                                          novelty_boost=0.0))
        self._check_post_burn_in(rs, lambda row: row)

    def test_saturated_mutation_flips_every_bit_once(self):
        # repeated flip positions would cancel under XOR and leave some bits
        # as they were; a count above the dimension flips each bit once. Means
        # above numpy's Poisson limit (about 9.2e18) must saturate the same way
        for means in ({"base_mutation_bits": 1000.0}, {"base_mutation_bits": 1e20},
                      {"base_mutation_bits": 1000.0, "novelty_boost": 1e19}):
            rs = generate_corpus(small_config(recombination_rate=1.0, **means))
            self._check_post_burn_in(rs, lambda row: 1 - row)


class TestEdgeConfigs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"games_per_year": 1},
            {"dimension": 1},
            {"recombination_rate": 0.0},
            {"recombination_rate": 1.0},
            {"crowdfunded_share_by_year": 0.0},
            {"crowdfunded_share_by_year": 1.0},
            {"year_end": 2006},
            {"games_per_year": 1, "dimension": 1, "recombination_rate": 1.0},
        ],
    )
    def test_shape_and_rerun_bytes(self, kwargs, tmp_path):
        cfg = small_config(**kwargs)
        rs = generate_corpus(cfg)
        n_years = cfg.year_end - cfg.year_start + 1
        assert len(rs) == n_years * cfg.games_per_year
        assert rs.matrix.shape == (len(rs), cfg.dimension)
        assert set(np.unique(rs.matrix)) <= {0, 1}
        assert rs.years.tolist() == [y for y in range(cfg.year_start, cfg.year_end + 1)
                                     for _ in range(cfg.games_per_year)]
        share = cfg.shares()[cfg.year_start]
        if share in (0.0, 1.0):
            assert all(r.crowdfunded == bool(share) for r in rs)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(rs, p1)
        write_records_csv(generate_corpus(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
