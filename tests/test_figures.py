import pytest

from epqed import figures


@pytest.mark.parametrize("figure", sorted(figures.PIPELINES))
def test_pinned_pipeline_passes(figure):
    result = figures.reproduce_figure(figure)
    failed = [f"{c.name}: value {c.value:.6g}, target {c.target}"
              for c in result.checks if not c.passed]
    assert result.passed and not failed, failed
