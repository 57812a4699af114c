"""The package's public names: what the criteria, the README and the CLI use."""

import re
from pathlib import Path

import scmbench as sb

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = sorted([
    "Environment", "GenConfig", "GenerationError", "LinearGaussianScm", "SampleBatch",
    "add_confounders", "analytic_moments", "four_node_demo_scm", "intervene",
    "parents", "random_scm", "sample",
    "ExperimentConfig", "environments_for", "run_experiment",
    "TrainConfig", "identify_parents",
    "IcpConfig", "EnumerationBudgetError", "icp_identify", "invariance_pvalue",
    "EmpiricalSample", "Gaussian1D", "frechet_gaussian1d", "ksample_equality_test",
    "transport_adjust", "__version__",
])


def used_names(text: str) -> set[str]:
    return set(re.findall(r"\bsb\.([A-Za-z_]\w*)", text))


def readme_library_block() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_all_is_the_public_set():
    assert sorted(sb.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in sb.__all__:
        assert getattr(sb, name) is not None, name


def test_the_criteria_and_the_readme_use_only_public_names():
    criteria = used_names((ROOT / "tests" / "test_acceptance.py").read_text())
    library = used_names(readme_library_block())
    assert len(criteria) >= 20 and len(library) >= 5  # the regex finds the uses
    assert criteria | library <= set(sb.__all__)
