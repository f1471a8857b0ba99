from pathlib import Path

import pytest

from fedbilevel.config import ConfigError, ExperimentConfig, load_config, parse_config_text

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# key, an accepted text and its value, a rejected text (None where no
# text is rejected), and the keys set beside it so the rejection is
# reached (at parse time or by resolve)
_KEY_CASES = [
    ("problem", "location", "location", "bogus", ()),
    ("n", "10", 10, "1.5", ()),
    ("m", "500", 500, "5e2", ()),
    ("seed", "-3", -3, "x", ()),
    ("methods", "fism, irig,", ("fism", "irig"), "fism,sgd", ()),
    ("s_values", "1, 2,", (1, 2), "1,x", ()),
    ("schedule_preset", "location", "location", "bogus", ()),
    ("gamma1", "2.5", 2.5, "fast", ()),
    ("a", "1", 1.0, "x", ()),
    ("lambda1", "0.5", 0.5, "nan", ()),
    ("b", "0", 0.0, "x", ()),
    ("max_rounds", "75", 75, "7.5", ()),
    ("tol", "none", None, "off", ()),
    ("repeats", "3", 3, "three", ()),
    ("margin", "0.25", 0.25, "wide", ()),
    ("test_size", "10", 10, "ten", ()),
    ("pos_digit", "3", 3, "3.0", ()),
    ("neg_digit", "2", 2, "two", ()),
    ("images_path", "data/a.idx", "data/a.idx", "",
     (("problem", "logistic-mnist"), ("labels_path", "b.idx"))),
    ("labels_path", "data/b.idx", "data/b.idx", "",
     (("problem", "logistic-mnist"), ("images_path", "a.idx"))),
    ("test_images_path", "t.idx", "t.idx", "", (("test_labels_path", "u.idx"),)),
    ("test_labels_path", "u.idx", "u.idx", "", (("test_images_path", "t.idx"),)),
    ("partition", "contiguous-balanced", "contiguous-balanced", "bogus", ()),
    ("unit_cost", "2", 2.0, "cheap", ()),
    ("comm_cost", "1, 2", (1.0, 2.0), "1,x", ()),
    ("client_cost_scale", "1, 2", (1.0, 2.0), "1,x", ()),
    ("out_dir", "runs/x", "runs/x", None, ()),  # any text names a directory
    ("write_csv", "yes", True, "maybe", ()),
]


class TestParsing:
    def test_basic_types(self):
        cfg = parse_config_text("""
# comment
problem = location
n = 10
m = 500
seed = 3
methods = fism, irig
s_values = 1,2,4,8
tol = 1e-5
write_csv = true
""").resolve()
        assert cfg.problem == "location"
        assert cfg.n == 10 and cfg.m == 500 and cfg.seed == 3
        assert cfg.methods == ("fism", "irig")
        assert cfg.s_values == (1, 2, 4, 8)
        assert cfg.tol == 1e-5
        assert cfg.write_csv is True

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("problem = location\nbogus = 1\n")
        assert "line 2" in str(err.value)
        assert err.value.key == "bogus"

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("n = ten\n")
        assert "line 1" in str(err.value)

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just a line\n")

    def test_tol_none(self):
        cfg = parse_config_text("problem = location\ntol = none\n").resolve()
        assert cfg.tol is None

    @pytest.mark.parametrize("key, text, value, rejected, context", _KEY_CASES,
                             ids=[case[0] for case in _KEY_CASES])
    def test_every_key_parses_as_its_type(self, key, text, value, rejected, context):
        parsed = getattr(parse_config_text(f"{key} = {text}\n"), key)
        assert parsed == value
        assert type(parsed) is type(value)
        if isinstance(value, tuple):
            assert list(map(type, parsed)) == list(map(type, value))
        if rejected is None:
            return
        cfg = ExperimentConfig()
        for k, raw in (("problem", "location"),) + context:
            cfg.set_key(k, raw)
        with pytest.raises(ConfigError) as err:
            cfg.set_key(key, rejected)
            cfg.resolve()
        assert err.value.key == key

    def test_every_key_has_a_parse_case(self):
        assert [case[0] for case in _KEY_CASES] == list(ExperimentConfig().echo_dict())


class TestResolve:
    def test_selection_defaults(self):
        cfg = ExperimentConfig()
        cfg.set_key("problem", "selection-1d")
        cfg.resolve()
        assert (cfg.gamma1, cfg.a, cfg.lambda1, cfg.b) == (1.0, 0.55, 1.0, 0.4)
        assert cfg.tol is None
        assert cfg.m == 1 and cfg.n == 1

    def test_location_defaults(self):
        cfg = ExperimentConfig()
        cfg.set_key("problem", "location")
        cfg.resolve()
        assert (cfg.gamma1, cfg.a, cfg.lambda1, cfg.b) == (1.0, 0.8, 1.0, 0.1)
        assert cfg.tol == 1e-5
        assert cfg.max_rounds == 100_000

    def test_classification_preset(self):
        cfg = ExperimentConfig()
        cfg.set_key("problem", "logistic-synthetic")
        cfg.resolve()
        assert (cfg.gamma1, cfg.a, cfg.lambda1, cfg.b) == (10.0, 0.8, 1.0, 0.1)

    def test_explicit_keys_override_preset(self):
        cfg = ExperimentConfig()
        cfg.set_key("problem", "location")
        cfg.set_key("gamma1", "2.5")
        cfg.resolve()
        assert cfg.gamma1 == 2.5
        assert cfg.a == 0.8  # untouched preset entries still apply

    def test_rejects_unknown_problem(self):
        cfg = ExperimentConfig()
        cfg.set_key("problem", "mystery")
        with pytest.raises(ConfigError):
            cfg.resolve()

    def test_rejects_bad_method(self):
        cfg = ExperimentConfig()
        cfg.set_key("methods", "fism,sgd")
        with pytest.raises(ConfigError):
            cfg.resolve()

    @pytest.mark.parametrize("key, raw", [("methods", "fism,fism"), ("s_values", "1,2,1")])
    def test_rejects_repeated_grid_entry(self, key, raw):
        cfg = ExperimentConfig()
        for k, value in [("problem", "location"), (key, raw)]:
            cfg.set_key(k, value)
        with pytest.raises(ConfigError) as err:
            cfg.resolve()
        assert err.value.key == key

    @pytest.mark.parametrize("problem", ["selection-1d", "location", "logistic-synthetic"])
    def test_rejects_s_values_above_m(self, problem):
        cfg = ExperimentConfig()
        for key, value in [("problem", problem), ("m", "4"), ("s_values", "1,5")]:
            cfg.set_key(key, value)
        with pytest.raises(ConfigError) as info:
            cfg.resolve()
        assert info.value.key == "s_values"

    @pytest.mark.parametrize("n", ["2", "5"])
    def test_rejects_selection_dimension_other_than_1(self, n):
        # the selection problem is one-dimensional; another n was ignored
        cfg = ExperimentConfig()
        cfg.set_key("n", n)
        with pytest.raises(ConfigError) as err:
            cfg.resolve()
        assert err.value.key == "n"

    def test_mnist_client_counts_not_checked_against_m(self):
        # logistic-mnist takes m from the data, not from the m key
        cfg = ExperimentConfig()
        for key, value in [("problem", "logistic-mnist"), ("m", "4"), ("s_values", "8"),
                           ("images_path", "images.idx"), ("labels_path", "labels.idx")]:
            cfg.set_key(key, value)
        assert cfg.resolve().s_values == (8,)

    @pytest.mark.parametrize("n", ["5", "784"])
    def test_rejects_mnist_dimension_key(self, n):
        # logistic-mnist takes its dimension from the images; a set n was ignored
        cfg = ExperimentConfig()
        for key, value in [("problem", "logistic-mnist"), ("images_path", "images.idx"),
                           ("labels_path", "labels.idx"), ("n", n)]:
            cfg.set_key(key, value)
        with pytest.raises(ConfigError) as err:
            cfg.resolve()
        assert err.value.key == "n"

    def test_rejects_odd_synthetic_m(self):
        cfg = ExperimentConfig()
        cfg.set_key("problem", "logistic-synthetic")
        cfg.set_key("m", "401")
        with pytest.raises(ConfigError):
            cfg.resolve()

    def test_rejects_odd_synthetic_test_size(self):
        cfg = ExperimentConfig()
        cfg.set_key("problem", "logistic-synthetic")
        cfg.set_key("test_size", "1")
        with pytest.raises(ConfigError) as err:
            cfg.resolve()
        assert err.value.key == "test_size"

    @pytest.mark.parametrize("margin", ["nan", "inf", "-0.1", "9"])
    def test_rejects_bad_synthetic_margin(self, margin):
        cfg = ExperimentConfig()
        cfg.set_key("problem", "logistic-synthetic")
        cfg.set_key("margin", margin)
        with pytest.raises(ConfigError) as err:
            cfg.resolve()
        assert err.value.key == "margin"

    @pytest.mark.parametrize("key, raw", [
        ("gamma1", "nan"), ("a", "inf"), ("lambda1", "nan"), ("b", "-inf"),
        ("tol", "nan"), ("unit_cost", "nan"), ("comm_cost", "0,nan"),
        ("client_cost_scale", "1,inf")])
    def test_rejects_non_finite_float(self, key, raw):
        # every range check is False for NaN, so these passed before
        cfg = ExperimentConfig()
        cfg.set_key("problem", "location")
        cfg.set_key(key, raw)
        with pytest.raises(ConfigError) as err:
            cfg.resolve()
        assert err.value.key == key

    def test_rejects_empty_comm_cost(self):
        # every run would fail pricing its clients
        cfg = ExperimentConfig()
        cfg.set_key("problem", "logistic-synthetic")
        cfg.set_key("comm_cost", "")
        with pytest.raises(ConfigError) as err:
            cfg.resolve()
        assert err.value.key == "comm_cost"

    def test_rejects_empty_client_cost_scale(self):
        # no client count matches a zero length, so every run would fail
        cfg = ExperimentConfig()
        cfg.set_key("problem", "logistic-synthetic")
        cfg.set_key("client_cost_scale", "")
        with pytest.raises(ConfigError) as err:
            cfg.resolve()
        assert err.value.key == "client_cost_scale"

    def test_rejects_equal_mnist_digits(self):
        cfg = ExperimentConfig()
        for key, value in [("problem", "logistic-mnist"), ("pos_digit", "3"),
                           ("neg_digit", "3")]:
            cfg.set_key(key, value)
        with pytest.raises(ConfigError) as err:
            cfg.resolve()
        assert err.value.key == "pos_digit"

    @pytest.mark.parametrize("key, raw", [("pos_digit", "12"), ("neg_digit", "-1"),
                                          ("pos_digit", "10")])
    def test_rejects_mnist_digit_outside_0_to_9(self, key, raw):
        cfg = ExperimentConfig()
        for k, value in [("problem", "logistic-mnist"), ("images_path", "images.idx"),
                         ("labels_path", "labels.idx"), (key, raw)]:
            cfg.set_key(k, value)
        with pytest.raises(ConfigError) as err:
            cfg.resolve()
        assert err.value.key == key

    @pytest.mark.parametrize("unset", [("images_path",), ("labels_path",),
                                       ("images_path", "labels_path")])
    def test_rejects_mnist_without_data_paths(self, unset):
        # a missing key, rejected before any file is read
        cfg = ExperimentConfig()
        cfg.set_key("problem", "logistic-mnist")
        for key in {"images_path", "labels_path"} - set(unset):
            cfg.set_key(key, "present.idx")
        with pytest.raises(ConfigError) as err:
            cfg.resolve()
        assert err.value.key == unset[0]

    def test_mnist_paths_not_required_by_other_problems(self):
        cfg = ExperimentConfig()
        cfg.set_key("problem", "logistic-synthetic")
        assert cfg.resolve().images_path == ""

    @pytest.mark.parametrize("key, missing", [("test_images_path", "test_labels_path"),
                                              ("test_labels_path", "test_images_path")])
    def test_rejects_half_set_heldout_pair(self, key, missing):
        # checked before any file is read: the named file does not exist
        cfg = ExperimentConfig()
        for k, value in [("problem", "logistic-mnist"), (key, "missing.idx")]:
            cfg.set_key(k, value)
        with pytest.raises(ConfigError) as err:
            cfg.resolve()
        assert err.value.key == missing

    @pytest.mark.parametrize("name", ["location", "logistic-mnist", "logistic-synthetic",
                                      "selection-1d"])
    def test_shipped_configs_resolve(self, name):
        load_config(CONFIGS / f"{name}.cfg")


class TestLoadConfig:
    def test_file_with_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("problem = selection-1d\nmax_rounds = 50\n", encoding="utf-8")
        cfg = load_config(path, overrides=["max_rounds=75", "seed=9"])
        assert cfg.max_rounds == 75
        assert cfg.seed == 9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_bad_override(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("problem = selection-1d\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path, overrides=["max_rounds"])

    def test_echo_dict_is_json_friendly(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("problem = selection-1d\n", encoding="utf-8")
        cfg = load_config(path)
        echo = cfg.echo_dict()
        assert echo["problem"] == "selection-1d"
        assert "provided" not in echo
        assert isinstance(echo["methods"], list)
