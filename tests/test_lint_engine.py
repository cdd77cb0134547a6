"""The lint engine: taint tracking, config reads, tree scanning."""

from repro.lint.engine import (
    CodeModel, DEFAULT_EXCLUDES, analyze_repro, analyze_source,
    analyze_tree, is_secret_name,
)


def model_of(source, file="snippet.py"):
    model = CodeModel()
    analyze_source(source, file, model)
    return model


# --- the secret-name heuristic ------------------------------------------


def test_secret_names_recognized():
    for name in ("key", "Kc", "password", "session_key", "dh_share",
                 "old_password", "shared_secret", "subkey"):
        assert is_secret_name(name), name


def test_non_secret_names_ignored():
    for name in ("data", "message", "keyboard", "monkey_patch", "index"):
        assert not is_secret_name(name), name


# --- taint: secrets flowing into primitives -----------------------------


def test_secret_parameter_flows_into_call():
    model = model_of(
        "def seal(key, data):\n"
        "    return pcbc_encrypt(key, data)\n"
    )
    flows = model.flows_into("pcbc_encrypt")
    assert len(flows) == 1
    assert flows[0].secret == "key"
    assert flows[0].function == "seal"
    assert flows[0].line == 2


def test_taint_propagates_through_assignment():
    model = model_of(
        "def seal(password, data):\n"
        "    derived = password\n"
        "    return cbc_encrypt(derived, data)\n"
    )
    assert len(model.flows_into("cbc_encrypt")) == 1


def test_untainted_argument_is_clean():
    model = model_of(
        "def seal(key, data):\n"
        "    return cbc_encrypt(data, data)\n"
    )
    assert model.flows_into("cbc_encrypt") == []


def test_dotted_callee_matches_last_component():
    model = model_of(
        "def seal(key, data):\n"
        "    return modes.pcbc_encrypt(key, data)\n"
    )
    assert len(model.flows_into("pcbc_encrypt")) == 1


# --- config-field reads -------------------------------------------------


def test_config_field_read_recorded():
    model = model_of(
        "def check(config):\n"
        "    if config.replay_cache:\n"
        "        pass\n"
    )
    reads = model.reads_of("replay_cache")
    assert len(reads) == 1
    assert reads[0].line == 2


def test_non_config_attribute_not_recorded():
    model = model_of(
        "def check(config):\n"
        "    return config.not_a_real_knob\n"
    )
    assert model.config_reads == []


# --- classes and functions ----------------------------------------------


def test_class_attrs_and_methods_collected():
    model = model_of(
        "class V4Codec:\n"
        "    name = 'v4'\n"
        "    def encode(self):\n"
        "        pass\n"
    )
    hits = model.classes_with_attr("name", "'v4'")
    assert len(hits) == 1
    assert "encode" in hits[0].methods


def test_functions_named():
    model = model_of("def sync_host_clock():\n    pass\n")
    assert len(model.functions_named("sync_host_clock")) == 1
    assert model.functions_named("other") == []


# --- simulation facts ---------------------------------------------------


def test_dotted_calls_record_the_full_chain():
    model = model_of(
        "def stamp(self):\n"
        "    return self.clock.now() + time.perf_counter()\n"
    )
    chains = {c.dotted for c in model.dotted_calls}
    assert "self.clock.now" in chains
    assert "time.perf_counter" in chains


def test_yields_classified_by_command():
    model = model_of(
        "def proc(ch, other):\n"
        "    yield wait(10)\n"
        "    yield recv(ch)\n"
        "    yield from other\n"
        "    yield 42\n"
        "def parked(ch):\n"
        "    yield recv(ch)\n"
    )
    # wait() is the scheduler's only command: a recv() yield is "other",
    # and a generator that only yields one is not a process
    assert [y.command for y in model.yields] == \
        ["wait", "other", "from", "other", "other"]
    assert model.process_functions() == {("snippet.py", "proc")}


def test_timer_create_records_bound_name_or_discard():
    model = model_of(
        "def arm(sched):\n"
        "    failsafe = sched.after(100, giveup)\n"
        "    sched.at(500, tick)\n"
        "    failsafe.cancel()\n"
    )
    assert [t.target for t in model.timer_creates] == ["failsafe", ""]
    assert [c.target for c in model.timer_cancels] == ["failsafe"]


def test_scheduler_internal_after_is_not_a_timer_create():
    # Scheduler.after calling self.at is plumbing, not a client arming
    # a timer: the receiver must look like a scheduler.
    model = model_of(
        "class Scheduler:\n"
        "    def after(self, delay, fn):\n"
        "        return self.at(self.now() + delay, fn)\n"
    )
    assert model.timer_creates == []


def test_unordered_taint_tracks_sets_and_sorted_cleanses():
    model = model_of(
        "def render(shards):\n"
        "    pending = set(shards)\n"
        "    for s in pending:\n"
        "        use(s)\n"
        "    for s in sorted(pending):\n"
        "        use(s)\n"
    )
    assert [(f.line, f.sink) for f in model.unordered_flows] == \
        [(3, "iteration")]


def test_unordered_reassignment_is_a_strong_update():
    model = model_of(
        "def render(shards):\n"
        "    pending = set(shards)\n"
        "    pending = sorted(pending)\n"
        "    for s in pending:\n"
        "        use(s)\n"
    )
    assert model.unordered_flows == []


# --- tree scanning ------------------------------------------------------


def test_analyze_tree_excludes_subtrees(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "attacks").mkdir()
    (tmp_path / "core" / "a.py").write_text(
        "def f(config):\n    return config.replay_cache\n")
    (tmp_path / "attacks" / "b.py").write_text(
        "def g(config):\n    return config.replay_cache\n")
    model = analyze_tree(tmp_path, exclude=DEFAULT_EXCLUDES)
    assert model.files == ["core/a.py"]
    assert len(model.reads_of("replay_cache")) == 1


def test_check_subtree_is_excluded_from_the_scan():
    """The checker reads config fields; scanning it would shift every
    lint anchor and invalidate the committed baseline."""
    model = analyze_repro()
    assert not any(f.startswith("src/repro/check/") for f in model.files)
    assert any(f.startswith("src/repro/kerberos/") for f in model.files)


def test_analyze_tree_prefix(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    model = analyze_tree(tmp_path, prefix="src/repro/")
    assert model.files == ["src/repro/a.py"]


def test_syntax_error_recorded_not_raised():
    model = model_of("def broken(:\n", file="bad.py")
    assert model.files == []
    assert len(model.errors) == 1
    assert "bad.py" in model.errors[0]
