"""Seeded sampler output pinned byte for byte, across batch sizes.

``tests/test_cli_bytes.py`` pins at most 1,000 variates per command.
The samplers work through their uniforms in fixed chunks of 2**14, so
this file pins batches on both sides of a chunk boundary and one batch
of many chunks, for each route, together with the columns of a large
path simulation, the tail-sliver redraw loop and Poisson counts at a
small, a middle and a split mean.  Each entry is the SHA-256 of the
int64 bytes of one batch.

As in ``tests/test_cli_bytes.py``, the digests depend on numpy's
``SeedSequence``, PCG64's raw words (batches of 512 draws or more) and
``Generator.random`` of those words (smaller batches and path epochs),
and hold for the numpy version stored with them; on another version the
test is skipped.  A change that alters seeded
output on purpose replaces the table with the observed one, which the
failure message prints, and names each changed entry in its change
notes.
"""

import hashlib

import numpy as np
import pytest

import bellproc as bp

NUMPY_VERSION = "2.4.6"

SIZES = (2**14 - 1, 2**14, 2**14 + 1, 100_003)

LAWS = {
    "m4": (2.0, 0.5, 0.25),
    "m190": (16.915395812433825, 2.0, 0.005263157894736842),
    "near_radius": (42.795017938700305, 2.0, 0.4996),  # asymptotic: table route only
}


def _digest(values) -> str:
    values = np.asarray(values)
    assert values.dtype == np.int64
    return hashlib.sha256(values.tobytes()).hexdigest()


def _batches():
    """(name, int64 array) for every pinned batch."""
    for law, triple in LAWS.items():
        params = bp.validate(*triple)
        table = bp.build_pmf_table(params)
        for size in SIZES:
            yield f"inverse_cdf {law} {size}", bp.sample_inverse_cdf(table, bp.RngStream(size), size)
        if params.validity is not bp.Validity.STRICT:
            continue
        jumps = bp.decompose(params)
        for size in SIZES:
            yield f"compound {law} {size}", bp.sample_compound(jumps, bp.RngStream(size), size)
            yield f"jump {law} {size}", bp.sample_jump(jumps, bp.RngStream(size), size)
    paths = bp.simulate_paths(bp.validate(*LAWS["m4"]), 0.7, 20_000, bp.RngStream(11))
    for column in ("offsets", "times", "sizes"):
        values = getattr(paths, column)
        yield f"simulate_paths m4 20000 {column}", values.view(np.int64) if column == "times" else values
    # A table covering half the mass: half the uniforms fall past it and
    # are redrawn, so the redraw loop runs for several rounds.
    half = bp.PmfTable(bp.validate(1.0, 1.0, 0.5), np.array([0.25, 0.25]), 0.5)
    yield "inverse_cdf half_table 100003", bp.sample_inverse_cdf(half, bp.RngStream(5), 100_003)
    # 12,000 is drawn as 16 parts of mean 750
    for mean in (0.5, 250.0, 12_000.0):
        yield f"poisson {mean:g} 100003", bp.sample_poisson(mean, bp.RngStream(3), 100_003)


DIGESTS = {
    'inverse_cdf m4 16383': '3fac9ca5229f0f07c2faf8a197d690929cfc85294a5837d944b37de11f814d2f',
    'inverse_cdf m4 16384': '679a97953593cacb539252f3b9be697b49e260533631f5b9fa03ff668cbcec9e',
    'inverse_cdf m4 16385': '0669f484cce94bbb14c32c46c37d2e001717f89e66adf762b2da6c14d3d23632',
    'inverse_cdf m4 100003': '5a4eb600648eb0c162a55160af00b541662184558bc2b9a2b7a02bb6857cdeaa',
    'compound m4 16383': '0c39e89f7323ac0a85a4a212bae9ced669526365038c4d70e3726a4fbaa8e85d',
    'jump m4 16383': 'f43c0882fe2f4fdd52931df4bffb160ae275cfc08066a6dd3120260b277262ea',
    'compound m4 16384': '9e47a6df62eb4b7533ea68c6287cea8315fed88cf3aa0e1744c5924637e47853',
    'jump m4 16384': '7de7c6402bf84ddb3761780f49961905872bafe727ac8cc296b9e8099945d0ca',
    'compound m4 16385': '3b92a67fff8617ce42a9f3d338d009c92944b1c711d8c9c5cef37fcb038a64a5',
    'jump m4 16385': 'e5c6b0b163822df7c1f8656c4ae923e99f0a5c3fb19f774074aaef10ec98924e',
    'compound m4 100003': '3f344f285cfd916aaffa641eb7968f1211dae5c5cd3ecf3341eb3417ae5fafc8',
    'jump m4 100003': '6feadbf1fb5601b6c2d1307212591a12e2a7e79fdb2d39259ccf3f9f011a1dd4',
    'inverse_cdf m190 16383': '78a0e3417fa085a03e08b8dcc5c3986e5034d511e95c3c0b80e94f593f930360',
    'inverse_cdf m190 16384': 'd966b787f2237dc549c905fa27400ea4cbef901cf0a90e272f164e306bc0392a',
    'inverse_cdf m190 16385': '23a5bab928761f54cf2e8898b699b8ed4ea67aa46e57a0e9f8acfcee879339ac',
    'inverse_cdf m190 100003': 'd54a4fda3d4879dd91efa20dad3253ce2ebaf52cbc4669e68e94f45711bce170',
    'compound m190 16383': '34b36bebc22034dfe2f1fe64644db22c34b3027167a4d2ad1db807eb42fd5c6b',
    'jump m190 16383': 'fe05b71b6d5a57561adcd86fe92f706fd8679399f682eee64f2b7a75463f3484',
    'compound m190 16384': 'b246185bbc8b02d4c4c1e6de1c4c4aa1e13fb6102c877c0f4d889d73237f161c',
    'jump m190 16384': 'bd82e2f71d724f0ebe925b5a12fc11e0366c57afafb630b60673863c6094cd2c',
    'compound m190 16385': 'd38e99e423bb516a37d6a5ed6ff89f827e7a85fe1320c8d03fc263d8a4dd0bb6',
    'jump m190 16385': 'e353e02bef1845f5bc573d214ba164e361a676e58a0b5c83ea3ccbb5ff714b61',
    'compound m190 100003': '2825efd65011567237d08316bcebe4f9d0b372d6bd149c601caa44f3962db597',
    'jump m190 100003': '0c3e4ad075dd09eb7badccace1921e5fb7e0ac98f9d0a0e506bec069b1fe8353',
    'inverse_cdf near_radius 16383': 'b994c78023086844f6a39db9a921ffb07effaf04bbd6141987467d888a3c2565',
    'inverse_cdf near_radius 16384': 'df0cd8aaba934997c4bc0f2538f5845f05820d8c760fb44ba1792aa3f5c8f11f',
    'inverse_cdf near_radius 16385': '3232aefdd8f307215305ba95b8f9743d0008c60fa5f7bfcf9042c19f2e430986',
    'inverse_cdf near_radius 100003': '06c60f9a0a68d00219f1c17ff556d502fe8aca352ce1b1aadb6c55d7ad8b52df',
    'simulate_paths m4 20000 offsets': 'cfca975ddc5f52c650a28065dd036d8796d74090aa19a13602841a7fc0f00834',
    'simulate_paths m4 20000 times': 'a421bccdf7220f2092f1216369094391a141617ba11b9c0e12ae09a9c65ac8f7',
    'simulate_paths m4 20000 sizes': '11b64fe64bb0476d50174c0c252a8b925500fb19c7c364bf7544d067c4624991',
    'inverse_cdf half_table 100003': 'a928fd1a1f05e1b09783903d838a8430e25f04c2c034d8b77c5e3db9091e2265',
    'poisson 0.5 100003': '9ebd14cf630789cc937663fe13f2cb4f40c48e858fcf9a538fc80802fc83cd98',
    'poisson 250 100003': 'c4546dc9fa8f0e947f1e951c2dfb6092c1c6b93eb69cd06301003d654e494eaa',
    'poisson 12000 100003': '41c8c19488713fe49cea22ea26f015d91369ae7ed158187f6ed275547f6f9e06',
}


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION, reason=f"digests pinned for numpy {NUMPY_VERSION}")
def test_sampler_bytes_match_pinned_digests():
    observed = {name: _digest(values) for name, values in _batches()}
    table = "".join(f"    {name!r}: {digest!r},\n" for name, digest in observed.items())
    assert observed == DIGESTS, f"observed digests:\nDIGESTS = {{\n{table}}}"
