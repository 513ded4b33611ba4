"""Seeded CLI output pinned byte for byte.

Each argv below runs through ``cli.main`` in process.  Its exit code,
the SHA-256 of its stdout and, for a refusal, its one stderr line are
compared with the table committed here.  ``verify --format json`` is
hashed without its ``wall_time`` line, the one value that is not
deterministic.

The digests depend on numpy's ``Generator`` streams, so they hold for
the numpy version stored with them; on another version the test is
skipped.  A change that alters seeded output on purpose replaces the
table with the observed one, which the failure message prints in the
same layout, and names each changed argv in its change notes.

The table argvs are also run in a child whose numpy has its AVX-512
code paths switched off, as on a CPU without them: the masses are
formed by exact binary scaling, not by numpy's SIMD ``exp``, so those
digests hold there too.
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
    'sample --alpha 1 --theta 1 --lambda 1 --method compound --n 500 --seed 9 --format csv': (0, '0ef84db3184a0eea49a4a6727b188d55abc34f5d74f423befdba0c18fbe10499', None),
    'sample --alpha 1 --theta 1 --lambda 1 --method compound --n 500 --seed 9 --format json': (0, '22fec12a435e155948804a18389d7028cfed378b96cbbfdf4731b61efa16ce57', None),
    'simulate --alpha 1 --theta 1 --lambda 1 --horizon 0.6 --seed 37 --paths 1 --format csv': (0, 'd96d2003120e41b93b3865a2a349a9883dd170eebacc5bd1bf2bd373dbd930e7', None),
    'simulate --alpha 1 --theta 1 --lambda 1 --horizon 0.6 --seed 37 --paths 1 --format json': (0, '83ddd561de6e1df7e3c5d9fa653efd8dc594366615944072f18ccd625dbd73e2', None),
    'simulate --alpha 1 --theta 1 --lambda 1 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format csv': (0, 'd165d6df1e1d85f72aa37e82d21eba1151bef16f8f1a4ee42858dafcbe29f5d4', None),
    'simulate --alpha 1 --theta 1 --lambda 1 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format json': (0, 'd1e33e484824ca182b63c9801514edbb65be613314e30df273b17b3b37819f86', None),
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
    'sample --alpha 1 --theta 1 --lambda 0.5 --method compound --n 500 --seed 9 --format csv': (0, '9d48fa9403cff05fa181baebab78f08e91d7f4cc0209fe24d1dd79f2863d2e52', None),
    'sample --alpha 1 --theta 1 --lambda 0.5 --method compound --n 500 --seed 9 --format json': (0, '820e9c54a7ed6a4e7a605740a5807229819e974094f20dec5a97218d635be575', None),
    'simulate --alpha 1 --theta 1 --lambda 0.5 --horizon 0.6 --seed 37 --paths 1 --format csv': (0, 'd96d2003120e41b93b3865a2a349a9883dd170eebacc5bd1bf2bd373dbd930e7', None),
    'simulate --alpha 1 --theta 1 --lambda 0.5 --horizon 0.6 --seed 37 --paths 1 --format json': (0, '5f42674da45a9c3808afe1c2571110106898a5290cf8560e83094c03e5710840', None),
    'simulate --alpha 1 --theta 1 --lambda 0.5 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format csv': (0, '8541ac9a1217e36a700fd321fa2f5f08d8b233b83842c31a0a474c057487da83', None),
    'simulate --alpha 1 --theta 1 --lambda 0.5 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format json': (0, '7af60263a603fda84534eaf327e81d490ac823d8aa65cbb74ee94b244656eec2', None),
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
    'sample --alpha 2 --theta 0.5 --lambda 0.25 --method compound --n 500 --seed 9 --format csv': (0, '13b485f100ea6f267fc82bac9463828c00166273b176e6e83506126395b5ed45', None),
    'sample --alpha 2 --theta 0.5 --lambda 0.25 --method compound --n 500 --seed 9 --format json': (0, 'eb38016cda758a78b0ddf687e3d2f34b496d63819c621d2f88f023744179fc30', None),
    'simulate --alpha 2 --theta 0.5 --lambda 0.25 --horizon 0.6 --seed 37 --paths 1 --format csv': (0, 'd96d2003120e41b93b3865a2a349a9883dd170eebacc5bd1bf2bd373dbd930e7', None),
    'simulate --alpha 2 --theta 0.5 --lambda 0.25 --horizon 0.6 --seed 37 --paths 1 --format json': (0, 'e8efa591e71397056ecc6f5c4c3613d866afe16b1a80dbd4e5baa5764822b400', None),
    'simulate --alpha 2 --theta 0.5 --lambda 0.25 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format csv': (0, '2ce1f434b993613374c889f032054052875e59b11649106360ab64271e76af3c', None),
    'simulate --alpha 2 --theta 0.5 --lambda 0.25 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format json': (0, '1959d9e5bff04ef2e7e8f0f7c1b6f8d464f8e63e11701a24437e0f123c532e16', None),
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
    'sample --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --method compound --n 500 --seed 9 --format csv': (0, 'ab0d76b977aafb04d1792850be6d78d2cecef04d0597f0a3c6df7912ed80a938', None),
    'sample --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --method compound --n 500 --seed 9 --format json': (0, '4f5aa67c4d39de4e3b6247ba08ab913f90e92698ca574190961ebfd674adcc08', None),
    'simulate --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --horizon 0.6 --seed 37 --paths 1 --format csv': (0, 'ea9a0e4901ce88d91d5ee0354dc56ff687fafadf2af8684ee85e902e9313ec87', None),
    'simulate --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --horizon 0.6 --seed 37 --paths 1 --format json': (0, 'f3b5f3af8a2e605356cc11a98857514ea72c5c425c3d70c5318c943f95ec3d7a', None),
    'simulate --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format csv': (0, '1af0810e68c8b991c3d1b1a9b6f0fad4ad159344fc322d3c442268e2df9b15ad', None),
    'simulate --alpha 16.915395812433825 --theta 2 --lambda 0.005263157894736842 --horizon 0.6 --seed 37 --paths 60 --marginal 0.3 --format json': (0, '0648773b50cce3e924471b59cd8573d8c1509b8a1859d33611c80e89b96fd20f', None),
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
    'verify --seed 12345 --format csv': (0, 'abcd31fb99c68e48deba0eb9bd56cb446e8eb88de3569e8a855fe72ff06fb5af', None),
    'verify --seed 12345 --format json': (0, '562c5ad13b17a3d4d400c201f323ede54051ef1b7e24463da3bae71769ba6124', None),
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


def test_table_digests_hold_without_avx512():
    argvs = [argv for argv in ARGVS if argv[0] == "table" and argv[-1] == "csv"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if child.returncode != 0:
        reason = (child.stderr.strip().splitlines() or ["no message"])[-1]
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={NO_AVX512!r}: {reason}")
    report = json.loads(child.stdout)
    if report["numpy"] != NUMPY_VERSION:
        pytest.skip(f"the child's numpy is {report['numpy']}, not {NUMPY_VERSION}")
    observed = {key: tuple(row) for key, row in report["digests"].items()}
    assert len(observed) == 12
    assert observed == {key: DIGESTS[key] for key in observed}
