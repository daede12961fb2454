"""Self-time bookkeeping of the traced run, and the namespace patching."""

import math

import pytest

import spans


def _tree():
    """root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9] > b1 [6, 8.5]."""
    tracer = spans.Tracer()
    for name, start, end, parent in [
            ("cli.main", 0.0, 10.0, -1), ("constraints.classify", 1.0, 4.0, 0),
            ("su2.rotated_basis", 2.0, 3.0, 1), ("fields.field_strength", 5.0, 9.0, 0),
            ("su2.rotated_basis", 6.0, 8.5, 3)]:
        tracer.name.append(tracer._id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
    return tracer


def test_self_times_sum_to_the_root_duration():
    tracer = _tree()
    own = spans.self_times(tracer.parent, tracer.start, tracer.end)
    assert own == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.5])
    assert math.fsum(own) == pytest.approx(tracer.end[0] - tracer.start[0])


def test_summary_attributes_self_time_to_layers():
    summary = spans.Summary(_tree(), items=2)
    assert summary.layer_self == pytest.approx(
        {"cli": 3.0, "constraints": 2.0, "su2": 3.5, "fields": 1.5})
    assert summary.calls["su2.rotated_basis"] == 2
    assert summary.per_call("su2.rotated_basis", 1.0) == (pytest.approx(1.75), True)
    assert summary.per_call("residuals.bianchi_residual", 1.0) == (0.0, False)


def test_recorded_spans_nest_and_restore_every_namespace():
    import ymwaves
    import ymwaves.cli
    import ymwaves.constraints as C

    original = C.nine_constraints
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert ymwaves.nine_constraints is C.nine_constraints is not original
        C.classify(C.build_family_i(1.3, 0.7, 0.2, 1.1))
    assert ymwaves.nine_constraints is C.nine_constraints is original
    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == "constraints.build_family_i"
    assert "fields.AnsatzParams" in names and "constraints.nine_constraints" in names
    classify = names.index("constraints.classify")
    own = spans.self_times(tracer.parent, tracer.start, tracer.end)
    tree = [i for i in range(len(names)) if i == classify or _under(tracer.parent, i, classify)]
    assert math.fsum(own[i] for i in tree) == pytest.approx(
        tracer.end[classify] - tracer.start[classify], rel=1e-9, abs=1e-12)


def _under(parent, i, root):
    while parent[i] >= 0:
        i = parent[i]
        if i == root:
            return True
    return False
