"""Golden outputs: the bytes of every benchmark request, pinned.

The benchmark's own specs and runners (perfbench's `workloads` and `jobs`,
imported, never changed) run in this process:

- every `cli` request of seeds 1-3, all rounds, through `run_cli_inprocess`:
  argv, exit code, stdout, stderr and the `--csv` file, with the scratch
  directory written as `{tmp}`, as the spec writes it;
- every `compute` job of seeds 1-10, round 0, with the benchmark's
  `SieveCapture` in place of `census.ideal_count_sieve` for the run.

Each record is one line of sorted-key JSON.  One sha256 is pinned per cli
template and one per compute kind, so a failure names what moved.  A change
that moves an output on purpose pins the new digest in the same change and
says which templates or kinds moved and why.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from test_cli import load_perfbench

CLI_SEEDS = (1, 2, 3)
COMPUTE_SEEDS = range(1, 11)

# sha256 of the records of each cli template, in job order over the seeds
CLI_DIGESTS = {
    "bad_command": "f32a22cd299611918dd346067c8ac5348d68ef10c36a97abde0ff0e461bfbff2",
    "bad_ideal": "cae372093e6f1cf52c901249dee795cab9667db5ba6ad607d20c1bbe6785757e",
    "bad_poly": "26fc713777fda10bec7e529922686278901c3cbb98388b1e3a670004379fd3b6",
    "census": "e31b36d2143be9e7d5d5bd3eb5a45aaad20d96a9c4b4b64101c5ec7cd0534ce3",
    "census_2": "42dd716591871fc3df3f8e775bf726f076a65c3f78814f1c5422ea710c463a70",
    "census_csv": "04110dfe0a0839e337a639eb6581d8d109f6654a9659182c4c73e3600193116f",
    "census_csv_2": "31aa098c23d8a84e109b75a91e1cbddda42a11ca9531fd3e8845b8d66f124625",
    "composite_cyclotomic": "111927de17a2cf08583a7969be3bd24d04fdb79d1ef987564b669a69d28e6626",
    "cyclo_lists": "ba336d6124860a92b1622c9e59108a2c8de2178d12999b8016eadd2d52e693bd",
    "cyclo_split": "a02bf1433e479631d37b8b9df0775f26395b08c6bd8588c247772c062377a235",
    "field_compose": "70cad3f823743270bd49578334e64b6ef50d25ad15b402bf9e2001c4a8e3dc13",
    "field_discriminant": "e00cd0ed5f4f9f7b2bd2acf41150002c3f597b96a07135cde7a2b0ae05cc20ae",
    "field_minpoly": "45a86ec7ef9eec3ade1166c3c5665420d3842dbcaa538bf716e0b08aff67e762",
    "field_primitive": "2b32b0a0ae3f8a3193afba9dea9ed51a5d0def0e3a7eb50ee7c50d5524213c08",
    "field_trace_norm": "485e98f42e256419c05bd9b5907d3a25452db0fbc4766268f60b08486ea842a2",
    "not_squarefree": "e1d97a5f71db197b702fff05e73a44510914499dbde54e78f05abe365d09d49f",
    "pell": "ad73e18774fb31723fbb37583e0fe4ae1f87e014ce64e05117382fe6e3d41604",
    "poly_content": "b802d37aa3f6e4640cd510ec7da6a3ce41172c7c5a704e4b3f9ea49e2d26c796",
    "poly_cyclotomic": "f3c3e9e0ef3a1a47cd5593ab729efdc0042ff710c5b53caaa208a2977755bf74",
    "poly_divrem": "2b7b070f1ec39ad558a1e5e7fdd5ee0a31867acb978838c96ef18f84dc64eddc",
    "poly_eisenstein": "b8330f41022532c1cba749627db93056d7f8c7dfce79e2ac85c14277cc5316fd",
    "poly_gcd": "227bbed2e071b3837c32721a5e58cc1c7fb3440ea6f14bbd2802982107383cab",
    "quad_classgroup": "04adbfeefbf8b02058113a25e65f8725c6ea371838e6b8a0769835f01dc77fb4",
    "quad_factor": "c770668ab0d011b1a14141eed049618e2cb7a4f7c229f6187ae4b961844a1af4",
    "quad_minkowski": "19475ce640104bcf9d971eecc287d2a333aecf13cc7e9a35193358a3d6423f00",
    "quad_principal": "d3d42f2599895ea608abc125e82c741e20db9176a685bef6eec344afd560a444",
    "quad_ring_text": "e807c9f83f49f1feb2da12e0342ad65bf09ec52eb2390644f5ff6fd1f6b59cb4",
    "quad_split": "f48f6e9d00a2117dbe68987cea3d9fba7e433855d4fb9779bf4a62b7b36e30e4",
    "units": "7dc839bcd974b117665a3ee341cb3012fde194d71d2b93ffdd1e8fbd3dc60d83",
}

# sha256 of the results of each compute kind, in job order over the seeds
COMPUTE_DIGESTS = {
    "census_perclass": "3c1d2a74aec2b8acd1da79eb1d7e292a650f0b2e544a537dd09b2d9c085cdcd9",
    "census_sieve": "d3ed748a7235952535e2c6f33e8c4abfdc091a8e771b66f8d1e468e5cd2973d1",
    "classgroup_imaginary": "586d1321f614485b4d3ddc152da333284881319e3f9ada3eb137a205364c950d",
    "classgroup_real": "677951e09eea0d6144977dce4e5038fa11c2bef2e24f280077d781f7eb0addbe",
    "numberfield_cyclotomic11": "9b2c63109e1f8aad8f196b3369e00b8833fd340c9f6abdc7436f622f1c767dbf",
    "numberfield_cyclotomic3": "4ffca0ea144dc2fd89950b7b6c61059d30f4990f6f2c3e8d61768354fcfec9b6",
    "numberfield_cyclotomic5": "d81707bd0a95953a62bcf9fe20dbb5b65f303e6074ab43c1398db3fcbe333402",
    "numberfield_cyclotomic7": "2d344d2f494b61ebd25dabd7437aad4040a0ebc46da902d9d22ce37ca1f835a0",
    "numberfield_eisenstein2": "8f09e455441d6b38f5083bda35692a6c866e5c4fa14ebc82f8c0490ee939a9ba",
    "numberfield_eisenstein3": "50838d5520e1080f51aa38ca834eed935911e669444525e4a6648eab01d5a7f6",
    "numberfield_eisenstein4": "ad8064cf2a941f40fb48d78402406ddcf6bb631b42eda04aacf7687c335a03ec",
    "numberfield_eisenstein5": "ede2cfc7f9f7e6995a291889a01afaa0a460db1c603067ec57682dd93b15a818",
    "numberfield_eisenstein6": "3409139060921dcbc663445d2efcbfbf18167036140d091cb9feedaad2a398ea",
    "numberfield_eisenstein7": "3f97703e44e00c5d4e978e86af6cc5e57202c3bb31003cb9719d2e8b55141130",
    "numberfield_eisenstein8": "172b0bd15db02bd568a4e467a57c67894bb8e336ab529e7e64e1c5ccef51e890",
}


def compute_kind(spec) -> str:
    """A compute job's kind: class groups by the sign of m, the census by
    its kind and a number field by its label (eisenstein2, cyclotomic7, ...)."""
    if spec["family"] == "classgroup":
        return "classgroup_imaginary" if spec["m"] < 0 else "classgroup_real"
    if spec["family"] == "census":
        return f"census_{spec['kind']}"
    return f"numberfield_{spec['label']}"


def _digests(records) -> dict[str, str]:
    """{name: sha256 of its records' sorted-key JSON lines} for (name, record) pairs."""
    hashes = {}
    for name, record in records:
        hashes.setdefault(name, hashlib.sha256()).update((json.dumps(record, sort_keys=True) + "\n").encode())
    return {name: h.hexdigest() for name, h in sorted(hashes.items())}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """({template: digest}, {kind: digest}) of this tree's outputs."""
    from quadrantal import census

    tmp = str(tmp_path_factory.mktemp("golden"))
    limit = sys.get_int_max_str_digits()
    with pytest.MonkeyPatch.context() as mp:
        oracles = load_perfbench("oracles", mp)
        workloads = load_perfbench("workloads", mp, oracles=oracles)
        jobs = load_perfbench("jobs", mp)
        mp.delenv("QUADRANTAL_PRECISION", raising=False)
        cli = []
        for seed in CLI_SEEDS:
            for spec in workloads.cli_jobs(seed):
                argv = jobs.prepare_cli(spec, tmp)
                try:  # a traceback is recorded as a job that raised
                    result = jobs.run_cli_inprocess(argv)
                except Exception as e:
                    result = {"raised": f"{type(e).__name__}: {e}"}
                csv = Path(argv[argv.index("--csv") + 1]) if "--csv" in argv else None
                result["csv"] = csv.read_text() if csv and csv.is_file() else None
                if csv:
                    csv.unlink(missing_ok=True)
                result = {key: v.replace(tmp, "{tmp}") if isinstance(v, str) else v for key, v in result.items()}
                cli.append((spec["template"], {"argv": spec["argv"], **result}))
        capture = jobs.SieveCapture()
        mp.setattr(census, "ideal_count_sieve", capture)  # removed when the context ends
        compute = []
        for seed in COMPUTE_SEEDS:
            for spec in (s for s in workloads.compute_jobs(seed) if s["round"] == 0):
                family = workloads.family("compute", spec)
                try:  # a job that raises is recorded, as the benchmark's worker records it
                    prepared = getattr(jobs, f"prepare_{family}")(spec)
                    if family == "census":
                        result = jobs.run_census(spec, prepared, capture)
                    else:
                        result = getattr(jobs, f"run_{family}")(spec, prepared)
                except Exception as e:
                    result = f"{type(e).__name__}: {e}"
                compute.append((compute_kind(spec), result))
    sys.set_int_max_str_digits(limit)  # main() lifts the int->str digit limit
    return _digests(cli), _digests(compute)


def test_every_template_and_kind_is_pinned(outputs):
    cli, compute = outputs
    if set(cli) != set(CLI_DIGESTS) or set(compute) != set(COMPUTE_DIGESTS):
        pytest.fail(f"templates {sorted(set(cli) ^ set(CLI_DIGESTS))} and kinds "
                    f"{sorted(set(compute) ^ set(COMPUTE_DIGESTS))} are run or pinned, not both")


@pytest.mark.parametrize("template", sorted(CLI_DIGESTS))
def test_cli_requests_unchanged(outputs, template):
    if outputs[0].get(template) != CLI_DIGESTS[template]:
        pytest.fail(f"the {template} requests of seeds {CLI_SEEDS} moved: sha256 {outputs[0].get(template)}")


@pytest.mark.parametrize("kind", sorted(COMPUTE_DIGESTS))
def test_compute_jobs_unchanged(outputs, kind):
    if outputs[1].get(kind) != COMPUTE_DIGESTS[kind]:
        pytest.fail(f"the {kind} jobs of seeds 1-10, round 0, moved: sha256 {outputs[1].get(kind)}")
