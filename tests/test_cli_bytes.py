"""Seeded CLI output pinned byte for byte.

Each argv below runs through ``cli.main`` in process.  Its exit code,
the SHA-256 of its stdout and, for a refusal, its one stderr line are
compared with the table committed here.  ``verify --format json`` is
hashed without its ``wall_time`` line, the one value that is not
deterministic.

The digests depend on numpy's ``SeedSequence``, PCG64's raw words
(batch draws of 512 or more) and ``Generator.random`` of those words
(smaller batches and path epochs), so they hold for the numpy version
stored with them; on another version the test is skipped.  A change that alters seeded output on purpose
replaces the table with the observed one, which the failure message
prints in the same layout, and names each changed argv in its change
notes.

The table argvs are also run in a child whose numpy has its AVX-512
code paths switched off, as on a CPU without them: the masses are
formed by exact binary scaling, not by numpy's SIMD ``exp``, so those
digests hold there too.  The compound ``sample`` and the ``simulate``
argvs are run in children with one BLAS thread and with OpenBLAS's
AVX2 kernels: their Poisson tables have a one-weight recurrence, so
their digests hold there too.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellproc.cli import main

NUMPY_VERSION = "2.4.6"

LAWS = [
    ("1", "1", "1"),
    ("1", "1", "0.5"),
    ("2", "0.5", "0.25"),
    ("42.795017938700305", "2", "0.4996"),  # asymptotic, near the radius
    ("16.915395812433825", "2", "0.005263157894736842"),  # m = 190
    ("0.7", "0.3", "0.6"),  # asymptotic, refused by compound and simulate
]

COMMANDS = [
    ("table",),
    ("table", "--t", "2.5", "--tail-tol", "1e-10"),
    ("moments",),
    ("sample", "--n", "1000", "--seed", "7"),
    ("sample", "--n", "1", "--seed", "7"),
    ("sample", "--method", "compound", "--n", "500", "--seed", "9"),
    ("simulate", "--horizon", "0.6", "--seed", "37", "--paths", "1"),
    ("simulate", "--horizon", "0.6", "--seed", "37", "--paths", "60", "--marginal", "0.3"),
]

ARGVS = [
    [command[0], "--alpha", a, "--theta", t, "--lambda", lam, *command[1:], "--format", fmt]
    for a, t, lam in LAWS
    for command in COMMANDS
    for fmt in ("csv", "json")
] + [
    ["verify", "--seed", "12345", "--format", "csv"],
    ["verify", "--seed", "12345", "--format", "json"],
]

# " ".join(argv) -> (exit code, SHA-256 of stdout, stderr line of a refusal)
DIGESTS = {
    'table --alpha 1 --theta 1 --lambda 1 --format csv': (0, 'b46f9cfa8c234064ddb2db5b69f4b224bd9e3398855fb5789640937577480a5c', None),
    'table --alpha 1 --theta 1 --lambda 1 --format json': (0, '6ae71bc7f60d2711f51b8d237835d1530067ca11a30a596dcc3bb00d3fbf7d4a', None),
    'table --alpha 1 --theta 1 --lambda 1 --t 2.5 --tail-tol 1e-10 --format csv': (0, '74b1c475f6b4c04d25fe2e9e55da8ba772a80fb1a110a6429ec6c20c54c7cfc8', None),
    'table --alpha 1 --theta 1 --lambda 1 --t 2.5 --tail-tol 1e-10 --format json': (0, '3011279b374c16dc69cc61d98b4b48da6f1bb68f133e055968be37ba03a343c4', None),
    'moments --alpha 1 --theta 1 --lambda 1 --format csv': (0, '6985574759f6d6eb19faa2648091ca153c1a767a280b58f83f6f71ebb4d555b9', None),
    'moments --alpha 1 --theta 1 --lambda 1 --format json': (0, 'e5afdb6649f59441bcd7a4e9236c2a00785d0522ca9a6d4e29f2d101f22c21d1', None),
    'sample --alpha 1 --theta 1 --lambda 1 --n 1000 --seed 7 --format csv': (0, 'ce9292913b23dc9141c4e5b41d9011379c5c1ff91316f7e41072d44e2ed8eb70', None),
    'sample --alpha 1 --theta 1 --lambda 1 --n 1000 --seed 7 --format json': (0, '2662c9f0c2699b07e408d0633170d2a901796e68ecc7ed2d4caf0cf5af541b93', None),
    'sample --alpha 1 --theta 1 --lambda 1 --n 1 --seed 7 --format csv': (0, '69c7caeeb286993227452c7358e28057a367cabbb5b4bd90c27ba3518af4dd30', None),
    'sample --alpha 1 --theta 1 --lambda 1 --n 1 --seed 7 --format json': (0, '0a7e57af8fd7f54d84cc07eaac7be8c9ed0df63042e5b76c35332eb8296b84c5', None),
    'sample --alpha 1 --theta 1 --lambda 1 --method compound --n 500 --seed 9 --format csv': (0, '8873e79ffaba22a03b36e7368e98af18e89e06fe3077adc5cab08e9b7cfecc76', None),
    'sample --alpha 1 --theta 1 --lambda 1 --method compound --n 500 --seed 9 --format json': (0, '261432804770bdaeecca475d756f22e799d8d9ebc13653c1398239eb59fd8163', None),
    'simulate --alpha 1 --theta 1 --lambda 1 --horizon 0.6 --seed 37 --paths 1 --format csv': (0, '178aa5c9bcd202a8dd86706451107b4ab73b1b0d6738642eb047e31d2cfb4757', None),
    'simulate --alpha 1 --theta 1 --lambda 1 --horizon 0.6 --seed 37 --paths 1 --format json': (0, 'b8631db898e179a983d409eeaeffe3d361bc36bdee89bc93fda476f0bf554f21', None),
    'simulate --alpha 1 --theta 1 --lambda 1 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format csv': (0, 'bb21a83d01f95fe24833bda3497a1d838dde8a6774373db162f10232770761a8', None),
    'simulate --alpha 1 --theta 1 --lambda 1 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format json': (0, '48732992a17f960e64bde103af22d07626f322f74724a24c52f3ce5a43bab859', None),
    'table --alpha 1 --theta 1 --lambda 0.5 --format csv': (0, 'bbea62bd695b6a6a3c69bf6ae3c6665645dfd6c72d67f81420635c5c51c148c2', None),
    'table --alpha 1 --theta 1 --lambda 0.5 --format json': (0, 'e4697bd63a8ecd4633dfdaa0225e28965bccb18f36119eb8f56b46b431235569', None),
    'table --alpha 1 --theta 1 --lambda 0.5 --t 2.5 --tail-tol 1e-10 --format csv': (0, 'e0dda3546fbafbf956cc75dfa146b0d3cca378e28d217885d3d246f65355ce96', None),
    'table --alpha 1 --theta 1 --lambda 0.5 --t 2.5 --tail-tol 1e-10 --format json': (0, '5df6dabe383151d05b78515ffade4c6e80350e40a83146434e418fa3080c7753', None),
    'moments --alpha 1 --theta 1 --lambda 0.5 --format csv': (0, 'e7244fd1f6ff0a582240fe9430f1e5665e7770cfd1499a4fbb4878281f1ca55d', None),
    'moments --alpha 1 --theta 1 --lambda 0.5 --format json': (0, '1904f72e9efc3e4fa1478d6c40e1875102f0b2f2d23f0d953c30d244edb9640a', None),
    'sample --alpha 1 --theta 1 --lambda 0.5 --n 1000 --seed 7 --format csv': (0, '630f95e94fd591037370f7050f5c85201a4e2ff8a530edbe5f06233a4e5e611e', None),
    'sample --alpha 1 --theta 1 --lambda 0.5 --n 1000 --seed 7 --format json': (0, 'c1802367a7b276abdf97b38c25b2bdb757db44af16dc9c0feeb28b018857f5d3', None),
    'sample --alpha 1 --theta 1 --lambda 0.5 --n 1 --seed 7 --format csv': (0, 'd243a980521173f8db6889f1b69fc0d90b76b4962af53f5a94be6da60db3e93a', None),
    'sample --alpha 1 --theta 1 --lambda 0.5 --n 1 --seed 7 --format json': (0, '9e9a566471f0ecc42d7bfad41cf230aa390a5e8820cdf5e1267e18aa19f9fc4b', None),
    'sample --alpha 1 --theta 1 --lambda 0.5 --method compound --n 500 --seed 9 --format csv': (0, '27e70f62af38a06610eb16986af136b3e261cdca11d949642b5eea79af421fc7', None),
    'sample --alpha 1 --theta 1 --lambda 0.5 --method compound --n 500 --seed 9 --format json': (0, '9f52387dd19b3439de4f120bcd166eb75b9833f48ce2fa5a6a333ae28764577a', None),
    'simulate --alpha 1 --theta 1 --lambda 0.5 --horizon 0.6 --seed 37 --paths 1 --format csv': (0, '178aa5c9bcd202a8dd86706451107b4ab73b1b0d6738642eb047e31d2cfb4757', None),
    'simulate --alpha 1 --theta 1 --lambda 0.5 --horizon 0.6 --seed 37 --paths 1 --format json': (0, '1a1e0f75e661b66053516ecc36cbc0a08f6def6c2ff519b2b0ec1f090ebfd655', None),
    'simulate --alpha 1 --theta 1 --lambda 0.5 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format csv': (0, 'bc42614f5d7d5dd312a850a53300260a3f7ad0b62d0761089009900040818a45', None),
    'simulate --alpha 1 --theta 1 --lambda 0.5 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format json': (0, '042779ad30893abe5107aec213d21922c9b1e070256aaa548577dd6bcd090f2e', None),
    'table --alpha 2 --theta 0.5 --lambda 0.25 --format csv': (0, '594a6a6f187ea49c35931ac2a802981c6cd0f713c7703502b159530078f5b865', None),
    'table --alpha 2 --theta 0.5 --lambda 0.25 --format json': (0, '5b347f11014ef276b433a7a2c0b345cdcc8e72b438a463d82ad9c8f6d29f00e8', None),
    'table --alpha 2 --theta 0.5 --lambda 0.25 --t 2.5 --tail-tol 1e-10 --format csv': (0, '22e3e9ac000d940f4ba9fcc713f309aaac44e65b0273151fb76fdc6987e99ded', None),
    'table --alpha 2 --theta 0.5 --lambda 0.25 --t 2.5 --tail-tol 1e-10 --format json': (0, '56b67512d0018d1b7e803d760ccbb70c2497690af33a1142babc15b271947c6f', None),
    'moments --alpha 2 --theta 0.5 --lambda 0.25 --format csv': (0, 'abf5b7eb281e4698aa740281c360f9a2abc94cf6b2ea0e9a958e6e3c9c223e7c', None),
    'moments --alpha 2 --theta 0.5 --lambda 0.25 --format json': (0, 'b65ed230630181290aae666c45af2c6fa42283e40cef6ed76db05e75851dbde7', None),
    'sample --alpha 2 --theta 0.5 --lambda 0.25 --n 1000 --seed 7 --format csv': (0, '007bee5fcee023b072f0377b844d116d4e716b0db5d6f7d1ce623b3710cc6e2f', None),
    'sample --alpha 2 --theta 0.5 --lambda 0.25 --n 1000 --seed 7 --format json': (0, '468a8cb781ecffda31818af65f459a4476870643244a1653261c6c160a6d31a7', None),
    'sample --alpha 2 --theta 0.5 --lambda 0.25 --n 1 --seed 7 --format csv': (0, 'd243a980521173f8db6889f1b69fc0d90b76b4962af53f5a94be6da60db3e93a', None),
    'sample --alpha 2 --theta 0.5 --lambda 0.25 --n 1 --seed 7 --format json': (0, '9e9a566471f0ecc42d7bfad41cf230aa390a5e8820cdf5e1267e18aa19f9fc4b', None),
    'sample --alpha 2 --theta 0.5 --lambda 0.25 --method compound --n 500 --seed 9 --format csv': (0, '001897a6412b1675f2cc5fadbea2d6b4799533fd226a13653f28ba48376fdeab', None),
    'sample --alpha 2 --theta 0.5 --lambda 0.25 --method compound --n 500 --seed 9 --format json': (0, 'd2c6262f681608b512f981142751cf147156d04cc63bdb7273a09d57b464fd3f', None),
    'simulate --alpha 2 --theta 0.5 --lambda 0.25 --horizon 0.6 --seed 37 --paths 1 --format csv': (0, '178aa5c9bcd202a8dd86706451107b4ab73b1b0d6738642eb047e31d2cfb4757', None),
    'simulate --alpha 2 --theta 0.5 --lambda 0.25 --horizon 0.6 --seed 37 --paths 1 --format json': (0, '86622fdc8e2cc3959f530720552131c7e028c491e388b966a40b49ad33b86841', None),
    'simulate --alpha 2 --theta 0.5 --lambda 0.25 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format csv': (0, '4f1f103b1aaba41a34579f32dd04991bb62e3180d0c87bf79d08a73f46b99870', None),
    'simulate --alpha 2 --theta 0.5 --lambda 0.25 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format json': (0, '2f39ad6cfa92335881cebf177571ddfc8b3555f43dc0cd1044d08843516628eb', None),
    'table --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --format csv': (0, '264a89babd6ea16bb4ce0b4612978ed47b32a056fd747d6fca82a258116c0fb5', None),
    'table --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --format json': (0, 'e17ecabea524b226561b36f7ae063486e9517cf955cca599a77032669e34e025', None),
    'table --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --t 2.5 --tail-tol 1e-10 --format csv': (0, 'edab6114fb07853e8d72ef77f371a0ab4c43db63a3b38f21bc0091ec7884262e', None),
    'table --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --t 2.5 --tail-tol 1e-10 --format json': (0, 'c3f0f90666d98f65419b74e3348a4821ce2f4c7c8f98fe3b7a368fd552fa8811', None),
    'moments --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --format csv': (0, '5bc4392c5a2aaf76df1223e5753c73910c4f112927b5861785a48c3b94055910', None),
    'moments --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --format json': (0, '9666698db0889f5b440ee5e7667d251a1542cdc693b911ced226b0148ead87e0', None),
    'sample --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --n 1000 --seed 7 --format csv': (0, 'a0f7d9dbe09f5c99122b863465ec66aa4b6bafa6ce7118c324b72160a663f65e', None),
    'sample --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --n 1000 --seed 7 --format json': (0, '23c575d0e9a0f04865cb3dcbae3861753c788ee9302d07200a499594ccf15647', None),
    'sample --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --n 1 --seed 7 --format csv': (0, '86511c0add8e1749054dff60b9499ead6e43638796939d537a47366e391a4f9a', None),
    'sample --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --n 1 --seed 7 --format json': (0, '176b564fa02f34f8a8b8ba73927f45bfa0ba635f277e19fd04fdd15f58726cfe', None),
    'sample --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --method compound --n 500 --seed 9 --format csv': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bellproc: error: compound decomposition requires strict validity (lam = 1 or 1/m); got lam=0.4996'),
    'sample --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --method compound --n 500 --seed 9 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bellproc: error: compound decomposition requires strict validity (lam = 1 or 1/m); got lam=0.4996'),
    'simulate --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --horizon 0.6 --seed 37 --paths 1 --format csv': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bellproc: error: path simulation requires strict validity'),
    'simulate --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --horizon 0.6 --seed 37 --paths 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bellproc: error: path simulation requires strict validity'),
    'simulate --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format csv': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bellproc: error: path simulation requires strict validity'),
    'simulate --alpha 42.795017938700305 --theta 2 --lambda 0.4996 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bellproc: error: path simulation requires strict validity'),
    'table --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --format csv': (0, 'dede3705283130eaf642674f012b6e6a1d69ddca991fc4021d51e65eb7790f13', None),
    'table --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --format json': (0, '71cd9c6d4a70afacc3f7b7a5928bdd62335e318bbde2ec5de8b31355248b0e2e', None),
    'table --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --t 2.5 --tail-tol 1e-10 --format csv': (0, '79ace5cab03c50a4a38260a9c8c165d08caca785def4bd94cb879f4538850ce1', None),
    'table --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --t 2.5 --tail-tol 1e-10 --format json': (0, '90621d7bf1cd2b3f24b127133fa8bb7ee662e5613cc037a5d85b7e50d3de2b30', None),
    'moments --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --format csv': (0, '5cfb53bcd24063591825f638fd789062f1dd6a8c795567b8010676c83d5b4989', None),
    'moments --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --format json': (0, '9d0169636134cd93f9859784410984142d775c524cb5527aa5b089ea46948dee', None),
    'sample --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --n 1000 --seed 7 --format csv': (0, '705e6271ea5dbae3f3c4edc9e46c97e120da7b40b4ecbd721dfe11a2a5b609f1', None),
    'sample --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --n 1000 --seed 7 --format json': (0, '1bd586adeee82520b6079c7b16c7fdea1c67ca686063a7bcc929252c1e350dcd', None),
    'sample --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --n 1 --seed 7 --format csv': (0, '3fb31fded24ce4f32b0a3bbee93ea99ab4df7ca8f15f0ae00cffe9968c68d582', None),
    'sample --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --n 1 --seed 7 --format json': (0, '6ccc97a28beee21e724a649762a39c3c39da7305668a5a1498d8201b58688a1b', None),
    'sample --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --method compound --n 500 --seed 9 --format csv': (0, '5a2acf9ebd4d1c391c9bccafa5db62e08cafc731efbd6423594ecd4bf9d1a403', None),
    'sample --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --method compound --n 500 --seed 9 --format json': (0, '2b81796fd843729ea97204185d006d3d1c1142d7ed99c025182b4b1909074bfd', None),
    'simulate --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --horizon 0.6 --seed 37 --paths 1 --format csv': (0, 'dae0faff0e065fd411d1250bd8b70e1a264c5cae3a84232a28f96d691e7cbdd9', None),
    'simulate --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --horizon 0.6 --seed 37 --paths 1 --format json': (0, 'be63e8606e77e2a7d1f2c971de3bb83dec84d3b78cfae2d9e37109d700378a66', None),
    'simulate --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format csv': (0, 'f29fedd6a205f27f9741dad908ec8fe14e7f7e8b1c9bbf5339a073ce58306b7e', None),
    'simulate --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format json': (0, '78c624a7ead3174f25bc43d8fd942b17e46435fd6d9a280f6ede3dde009c98ab', None),
    'table --alpha 0.7 --theta 0.3 --lambda 0.6 --format csv': (0, '0afe37a0e55cdaf0664c7623a5bd6ec3dec17076ca6489c759b70a02a20967bc', None),
    'table --alpha 0.7 --theta 0.3 --lambda 0.6 --format json': (0, 'cdb1f229d6a3ad456548688ec576ce32b9efcd9a34b3dbad397b44e496b1b117', None),
    'table --alpha 0.7 --theta 0.3 --lambda 0.6 --t 2.5 --tail-tol 1e-10 --format csv': (0, '5a0b5cc7975bcb8e6ec714d00b15908c8e16b79f0c0ac45f642701af0c6ca93a', None),
    'table --alpha 0.7 --theta 0.3 --lambda 0.6 --t 2.5 --tail-tol 1e-10 --format json': (0, 'ee46ace07630a772bdc331ec67a59899e3fbed87a8437d8ee4a9a7f47b3d3c30', None),
    'moments --alpha 0.7 --theta 0.3 --lambda 0.6 --format csv': (0, '8a760927afb50381cf8bd1b68898f1b8f908a03751e82e073d77abd1ad45d3ca', None),
    'moments --alpha 0.7 --theta 0.3 --lambda 0.6 --format json': (0, 'ea71eab22d2b1019539c8a4b42ece4811880fad77d63081ad043f373de6ec6a9', None),
    'sample --alpha 0.7 --theta 0.3 --lambda 0.6 --n 1000 --seed 7 --format csv': (0, 'e96e5de19559e87864997c520cc6b51f9a8148b734ac21f0f5bad1d288d55e75', None),
    'sample --alpha 0.7 --theta 0.3 --lambda 0.6 --n 1000 --seed 7 --format json': (0, '4af554b6be12b7a320fdc99e0143a64350410f6e4d6e6edf3e455764c295c01d', None),
    'sample --alpha 0.7 --theta 0.3 --lambda 0.6 --n 1 --seed 7 --format csv': (0, '2dcb54e3ebba3b329790bc8e0d48e4228b05d1eedeec0c0be7d255fde2a68ea5', None),
    'sample --alpha 0.7 --theta 0.3 --lambda 0.6 --n 1 --seed 7 --format json': (0, 'f1596721eb718df04c76c19374b4920e20c26702821296e7f9be1110ddaf48c6', None),
    'sample --alpha 0.7 --theta 0.3 --lambda 0.6 --method compound --n 500 --seed 9 --format csv': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bellproc: error: compound decomposition requires strict validity (lam = 1 or 1/m); got lam=0.6'),
    'sample --alpha 0.7 --theta 0.3 --lambda 0.6 --method compound --n 500 --seed 9 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bellproc: error: compound decomposition requires strict validity (lam = 1 or 1/m); got lam=0.6'),
    'simulate --alpha 0.7 --theta 0.3 --lambda 0.6 --horizon 0.6 --seed 37 --paths 1 --format csv': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bellproc: error: path simulation requires strict validity'),
    'simulate --alpha 0.7 --theta 0.3 --lambda 0.6 --horizon 0.6 --seed 37 --paths 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bellproc: error: path simulation requires strict validity'),
    'simulate --alpha 0.7 --theta 0.3 --lambda 0.6 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format csv': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bellproc: error: path simulation requires strict validity'),
    'simulate --alpha 0.7 --theta 0.3 --lambda 0.6 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bellproc: error: path simulation requires strict validity'),
    'verify --seed 12345 --format csv': (0, '58b6ff31254ebc0fef4170c38ca8b5855982a8ed13ea83ff44b3430a0e2986fa', None),
    'verify --seed 12345 --format json': (0, 'b761aeb17ad7b05255640f853a9be6d7cc02f7902262afbf23a5c813774505aa', None),
}


def _observe(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    if argv[0] == "verify" and argv[-1] == "json":
        out = "".join(
            line for line in out.splitlines(keepends=True) if '"wall_time":' not in line
        )
    return code, hashlib.sha256(out.encode()).hexdigest(), err.rstrip("\n") if code == 2 else None


def _layout(table):
    rows = "".join(f"    {key!r}: {row!r},\n" for key, row in table.items())
    return "DIGESTS = {\n" + rows + "}\n"


@pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests were taken with numpy {NUMPY_VERSION}, whose random streams they pin",
)
def test_cli_output_matches_committed_digests(capsys):
    observed = {" ".join(argv): _observe(argv, capsys) for argv in ARGVS}
    assert observed == DIGESTS, "observed table:\n" + _layout(observed)


# Switches numpy's own SIMD dispatch to the AVX2 paths.
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"

_CHILD = """
import contextlib, hashlib, io, json, sys
import numpy as np
from bellproc.cli import main
digests = {}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    digests[" ".join(argv)] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), None]
print(json.dumps({"numpy": np.__version__, "digests": digests}))
"""


def _child_digests(argvs, **env_vars):
    """Digests of ``argvs`` run in a child under ``env_vars``; a skip where
    the child cannot start or its numpy is not the pinned one."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if child.returncode != 0:
        reason = (child.stderr.strip().splitlines() or ["no message"])[-1]
        pytest.skip(f"the child refuses {env_vars!r}: {reason}")
    report = json.loads(child.stdout)
    if report["numpy"] != NUMPY_VERSION:
        pytest.skip(f"the child's numpy is {report['numpy']}, not {NUMPY_VERSION}")
    return {key: tuple(row) for key, row in report["digests"].items()}


def test_table_digests_hold_without_avx512():
    argvs = [argv for argv in ARGVS if argv[0] == "table" and argv[-1] == "csv"]
    observed = _child_digests(argvs, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    assert len(observed) == 12
    assert observed == {key: DIGESTS[key] for key in observed}


@pytest.mark.parametrize("env_vars", [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_CORETYPE": "Haswell"}])
def test_compound_digests_hold_under_other_blas_settings(env_vars):
    argvs = [
        argv for argv in ARGVS
        if (argv[0] == "simulate" or "compound" in argv) and argv[-1] == "csv"
        and DIGESTS[" ".join(argv)][0] == 0
    ]
    observed = _child_digests(argvs, **env_vars)
    assert len(observed) == 12
    assert observed == {key: DIGESTS[key] for key in observed}
