"""Golden outputs of the command line.

Each argv list below runs in-process through `ktgw.cli.main`, and the
SHA-256 of its (exit code, stdout, stderr) must match the table, which was
recorded from a known-good build.  The outputs are part of the interface
(JSON schema v1, the CSV layouts, the text tables and the exit codes), so
any change to them shows up here.  Floats are compared bit for bit, so the
table assumes IEEE doubles and a correctly rounded libm.  To re-record after
an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and paste the printed table over GOLDEN.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from ktgw.cli import main

FORMATS = ((), ("--format", "text"), ("--format", "json"), ("--format", "csv"))
METHODS = ((), ("--method", "closed"), ("--method", "enumerate"),
           ("--method", "both"))
GW_CLASSES = (
    (1, 1, 0, 0),
    (2, 4, 1, 2),
    (3, 6, 2, 4),
    (6, 6, 4, 4),
    (12, 18, 8, 12),
    (-4, 2, 6, -3),
    (0, 0, 0, 0),
    (0, 0, 3, 0),
    (1, 0, 0, 1),
    (2 ** 89 - 1, 2 ** 89 - 1, 0, 0),
    # Normalization: a negative diagonal, a class with only the second pair,
    # and 6 and -35 times consecutive Fibonacci numbers near 3e14.
    (-3, -3, 2, 2),
    (0, 0, -4, -6),
    (1848369127020774, 1142354944254810, -10782153240954515,
     -6663737174819725),
)


def golden_argvs():
    for cls in GW_CLASSES:
        for method in METHODS:
            for fmt in FORMATS:
                yield ["gw", *map(str, cls), *method, *fmt]
    # One format per class, in turn, keeps the geometry work small.
    for i, (m, n) in enumerate((m, n) for m in range(-2, 3)
                               for n in range(-2, 3)):
        yield ["moduli", str(m), str(n), *FORMATS[1 + i % 3]]
    for suite in ("identities", "oracle", "geometry", "all"):
        yield ["verify", suite, "--max", "2"]
    yield ["verify", "identities", "--max", "0"]
    # Wider geometry paths: the eval-cycle integral, the residual and the
    # component listing on about 2000 components.
    yield ["verify", "geometry", "--max", "8"]
    yield ["verify", "oracle", "--max", "8"]
    yield ["moduli", "120", "0", "--format", "json"]
    yield ["moduli", "-36", "24", "--format", "text"]
    # Many rows at l = |m|/d, where the listed hom is reparametrised.
    yield ["moduli", "-8", "-8", "--format", "csv"]
    # A refusal: dp h4 = -2 * 10^154 squares past the largest float.
    yield ["moduli", "1", str(2 * 10 ** 154)]
    # JSON with the repr of a 1.220703125e-4 residual, with gcd(m, n) = 12
    # and with a negative m.
    yield ["moduli", "1", str(10 ** 12), "--format", "json"]
    yield ["moduli", "12", "12", "--format", "json"]
    # The same two as CSV, whose floats are their repr: the residual takes
    # its exponent form.
    yield ["moduli", "1", str(10 ** 12), "--format", "csv"]
    yield ["moduli", "12", "12", "--format", "csv"]
    yield ["moduli", "-7", "3", "--format", "json"]
    # Six divisors of gcd(60, -36) = 12 and 360 components, each divisor's
    # data shared by its labels; and the odd divisor d = 3 of (-9, 6),
    # whose dq h4 = k - 3/2 is a half-integer.
    yield ["moduli", "60", "-36", "--format", "json"]
    yield ["moduli", "60", "-36", "--format", "text"]
    yield ["moduli", "-9", "6", "--format", "json"]
    # A refusal: e134 has about 4500 digits, past the interpreter's limit
    # for printing an int.
    big = str(10 ** 1500)
    for fmt in FORMATS[1:]:
        yield ["gw", big, big, "1", "1", "--method", "closed", *fmt]
    # The enumerated route sums 100^2 divisor pairs for a class with 10^11
    # components, and refuses g = 963761198400, whose 6720 divisors make
    # 6720^2 pairs.
    for method in METHODS[2:]:
        yield ["gw", *map(str, (10 ** 9, 10 ** 9, 0, 0)), *method]
    yield ["gw", *map(str, (963761198400, 963761198400, 0, 0))]
    for fmt in FORMATS:
        yield ["baseline", "30", *fmt]
    yield ["baseline", "0"]
    yield ["baseline", "0", "--format", "json"]
    # Command lines that argparse reads but that are not in the plain form
    # (the command, its positionals, then full flags with their values):
    # --flag=value, abbreviated flags, options before or between the
    # positionals, and ints that int() reads in another spelling.  The
    # last two also repeat an option, which the plain form allows.
    yield ["gw", "2", "4", "1", "2", "--format=json"]
    yield ["gw", "2", "4", "1", "2", "--meth", "closed", "--form", "csv"]
    yield ["gw", "+6", "6", "4", "4"]
    yield ["moduli", "1_2", "0"]
    yield ["moduli", "٣", "0", "--format", "csv"]
    yield ["gw", "--format", "json", "6", "6", "4", "4"]
    yield ["gw", "6", "6", "--method", "closed", "4", "4"]
    yield ["verify", "identities", "--m", "3"]
    yield ["verify", "identities", "--max=3"]
    yield ["gw", "6", "6", "4", "4", "--format", "csv", "--format", "json"]
    yield ["verify", "identities", "--max", "9", "--max", "2"]


def digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


GOLDEN = {
    "gw 1 1 0 0":
        "c0fddacb09ba762ff258519a438efb89b485ba8055ae2703ef3a79b51d30e5a1",
    "gw 1 1 0 0 --format text":
        "c0fddacb09ba762ff258519a438efb89b485ba8055ae2703ef3a79b51d30e5a1",
    "gw 1 1 0 0 --format json":
        "aabe7710f3dca71b00eeb7151335bf2b86d5fecf6aee8cf5b72097ce8993c8af",
    "gw 1 1 0 0 --format csv":
        "d393426f1b5b9e04c5b38f318ce704c5e6f293a44f1cbb34bf5b5354a377bd41",
    "gw 1 1 0 0 --method closed":
        "cf50af2c1058b5717e64e47f0629ef27995102e26f8681a2c4051c6308c61c13",
    "gw 1 1 0 0 --method closed --format text":
        "cf50af2c1058b5717e64e47f0629ef27995102e26f8681a2c4051c6308c61c13",
    "gw 1 1 0 0 --method closed --format json":
        "45284d7b69cc568c258afd44f12b54b97109c8b67cb39fd5b9f27b4219cfc443",
    "gw 1 1 0 0 --method closed --format csv":
        "74e568c095d694c89a7794f20d5092434ba19a54c60be136082779387f1fb8f7",
    "gw 1 1 0 0 --method enumerate":
        "abd46c98935a395faa7a4c32a52667728afd0e1c9835e5a63b4f495f4f3f1da2",
    "gw 1 1 0 0 --method enumerate --format text":
        "abd46c98935a395faa7a4c32a52667728afd0e1c9835e5a63b4f495f4f3f1da2",
    "gw 1 1 0 0 --method enumerate --format json":
        "ff9f4a2a48dc74d079ff04d1a07c82902e4114117129c343f6efa5cd66b75b38",
    "gw 1 1 0 0 --method enumerate --format csv":
        "9c1863165c7aae88abbeef34f141a294169741dbc29f51f7b56f49a67ec57d9e",
    "gw 1 1 0 0 --method both":
        "c0fddacb09ba762ff258519a438efb89b485ba8055ae2703ef3a79b51d30e5a1",
    "gw 1 1 0 0 --method both --format text":
        "c0fddacb09ba762ff258519a438efb89b485ba8055ae2703ef3a79b51d30e5a1",
    "gw 1 1 0 0 --method both --format json":
        "aabe7710f3dca71b00eeb7151335bf2b86d5fecf6aee8cf5b72097ce8993c8af",
    "gw 1 1 0 0 --method both --format csv":
        "d393426f1b5b9e04c5b38f318ce704c5e6f293a44f1cbb34bf5b5354a377bd41",
    "gw 2 4 1 2":
        "d8e96272d0e3f9a1644ec224be6e33891b7825368b458cd7d3e4e671b2e48be9",
    "gw 2 4 1 2 --format text":
        "d8e96272d0e3f9a1644ec224be6e33891b7825368b458cd7d3e4e671b2e48be9",
    "gw 2 4 1 2 --format json":
        "c3cc13566f06bfb60d76b249c48fc65c6f2c96b804dcf31f2ba1b69b453ade25",
    "gw 2 4 1 2 --format csv":
        "ccdb7887e102571671a224767fc5c7ce56d22453663b81fcc747a8a0b62b1cf3",
    "gw 2 4 1 2 --method closed":
        "f12cd92e07f4706981672ea12876373fdee2e999a953551cdf1c341e20c43967",
    "gw 2 4 1 2 --method closed --format text":
        "f12cd92e07f4706981672ea12876373fdee2e999a953551cdf1c341e20c43967",
    "gw 2 4 1 2 --method closed --format json":
        "1571f71e24b5e51e601a660ecaac0fe69a2805e82d6e619c307ab7346399fda0",
    "gw 2 4 1 2 --method closed --format csv":
        "26c8101a0c9323aff21bce17757ba20d58442482fbe54d47d201b2b258f2e3f0",
    "gw 2 4 1 2 --method enumerate":
        "91ea6b63010256908144398db426a355515473dd51d029ee8be5c581366e0bb7",
    "gw 2 4 1 2 --method enumerate --format text":
        "91ea6b63010256908144398db426a355515473dd51d029ee8be5c581366e0bb7",
    "gw 2 4 1 2 --method enumerate --format json":
        "e2311d9267b15f4def4d49831468adf373e882dcfb883d42bca13d9170d9c648",
    "gw 2 4 1 2 --method enumerate --format csv":
        "2e6e9ecb2272b117f8fe5b07ab43401e6fa2113891dcb4f75b67f388edc1c0ed",
    "gw 2 4 1 2 --method both":
        "d8e96272d0e3f9a1644ec224be6e33891b7825368b458cd7d3e4e671b2e48be9",
    "gw 2 4 1 2 --method both --format text":
        "d8e96272d0e3f9a1644ec224be6e33891b7825368b458cd7d3e4e671b2e48be9",
    "gw 2 4 1 2 --method both --format json":
        "c3cc13566f06bfb60d76b249c48fc65c6f2c96b804dcf31f2ba1b69b453ade25",
    "gw 2 4 1 2 --method both --format csv":
        "ccdb7887e102571671a224767fc5c7ce56d22453663b81fcc747a8a0b62b1cf3",
    "gw 3 6 2 4":
        "997f8fb95dc8247673fe5c2f2aebc489cf9e0515f24ebf05d1180c26064e1f23",
    "gw 3 6 2 4 --format text":
        "997f8fb95dc8247673fe5c2f2aebc489cf9e0515f24ebf05d1180c26064e1f23",
    "gw 3 6 2 4 --format json":
        "1bd3adcb795a76e9953d2b1ced1e911734dd6e311f1540b2a387dde56dfe1304",
    "gw 3 6 2 4 --format csv":
        "5a46656fe9bf5ba0e5315ef1b4fead5753e506c5111074fbd9c16b555256faac",
    "gw 3 6 2 4 --method closed":
        "8a7dad5f719beebb42cc59d33ab7bbe8b2d5d2c80880e545e821addd21f1db4d",
    "gw 3 6 2 4 --method closed --format text":
        "8a7dad5f719beebb42cc59d33ab7bbe8b2d5d2c80880e545e821addd21f1db4d",
    "gw 3 6 2 4 --method closed --format json":
        "233379942e96f982c966511d99ab669d9fd3b2f7ee86179d8342279d4e642aa9",
    "gw 3 6 2 4 --method closed --format csv":
        "ba0cb33458fdfc22259c24fd441c9ad81abd09e57c200302eecfe54cb1b86d89",
    "gw 3 6 2 4 --method enumerate":
        "e2d76e210cde1fc32dcff053bd0081cf75bb767913b18c922516802d656cce93",
    "gw 3 6 2 4 --method enumerate --format text":
        "e2d76e210cde1fc32dcff053bd0081cf75bb767913b18c922516802d656cce93",
    "gw 3 6 2 4 --method enumerate --format json":
        "86a381911eec9483791bce5ae89a316553f832f84d0e9a7fa660c03b1206443b",
    "gw 3 6 2 4 --method enumerate --format csv":
        "cc5b67687ce02d1ff4ad1b88a125f5b2705f97b9a1e937d8830b5c0be3d9522f",
    "gw 3 6 2 4 --method both":
        "997f8fb95dc8247673fe5c2f2aebc489cf9e0515f24ebf05d1180c26064e1f23",
    "gw 3 6 2 4 --method both --format text":
        "997f8fb95dc8247673fe5c2f2aebc489cf9e0515f24ebf05d1180c26064e1f23",
    "gw 3 6 2 4 --method both --format json":
        "1bd3adcb795a76e9953d2b1ced1e911734dd6e311f1540b2a387dde56dfe1304",
    "gw 3 6 2 4 --method both --format csv":
        "5a46656fe9bf5ba0e5315ef1b4fead5753e506c5111074fbd9c16b555256faac",
    "gw 6 6 4 4":
        "642f21a17808e342097d752d921ae074307f42bd2f6e2d2ab201a155924cae39",
    "gw 6 6 4 4 --format text":
        "642f21a17808e342097d752d921ae074307f42bd2f6e2d2ab201a155924cae39",
    "gw 6 6 4 4 --format json":
        "828ee859342bd28db7a5b954c6b105a85e71b718e970251a304caa2a2770dd48",
    "gw 6 6 4 4 --format csv":
        "71b25c016e64b9fed00bac6fb14140e05b25a9082315b3a4b3b82b623a8d25bd",
    "gw 6 6 4 4 --method closed":
        "026a9c44eb8b16f8df4424c712ffd44781123be1c2eb524aee8fd8a7a2566f97",
    "gw 6 6 4 4 --method closed --format text":
        "026a9c44eb8b16f8df4424c712ffd44781123be1c2eb524aee8fd8a7a2566f97",
    "gw 6 6 4 4 --method closed --format json":
        "31736018595ee1f5029e36fc6bf0b4183df4d78b65197a800492b87e2bb8f6c1",
    "gw 6 6 4 4 --method closed --format csv":
        "f492c1d4a2fe937c78fb31f2083b1648a5aedbe2098e418d8d9e9f63d79a62b4",
    "gw 6 6 4 4 --method enumerate":
        "52dc55bd8dd2156ee262fc9f6328552fbb54191b94dcf2402a7ddf3c6e903b32",
    "gw 6 6 4 4 --method enumerate --format text":
        "52dc55bd8dd2156ee262fc9f6328552fbb54191b94dcf2402a7ddf3c6e903b32",
    "gw 6 6 4 4 --method enumerate --format json":
        "e2b5409539867b357bec2ae65804d3ec217476adfc23b97c72a266c61e2c6c8b",
    "gw 6 6 4 4 --method enumerate --format csv":
        "43c789a0d4d9b742b9063e4cc780ada9cef647aff8106c8980aa7cacc1412fde",
    "gw 6 6 4 4 --method both":
        "642f21a17808e342097d752d921ae074307f42bd2f6e2d2ab201a155924cae39",
    "gw 6 6 4 4 --method both --format text":
        "642f21a17808e342097d752d921ae074307f42bd2f6e2d2ab201a155924cae39",
    "gw 6 6 4 4 --method both --format json":
        "828ee859342bd28db7a5b954c6b105a85e71b718e970251a304caa2a2770dd48",
    "gw 6 6 4 4 --method both --format csv":
        "71b25c016e64b9fed00bac6fb14140e05b25a9082315b3a4b3b82b623a8d25bd",
    "gw 12 18 8 12":
        "d666c9675396639669843a82bdb80749524b6d411587025362192e8a77daad73",
    "gw 12 18 8 12 --format text":
        "d666c9675396639669843a82bdb80749524b6d411587025362192e8a77daad73",
    "gw 12 18 8 12 --format json":
        "36497912a51e41e1ba5b2de4b364a9e8b84b51143d5c9a4dabe60822aee0a7cd",
    "gw 12 18 8 12 --format csv":
        "04130cfbd413fe69937794aaa2dff78a7af4ff0b8c97a40f2b1acea6e75f0e09",
    "gw 12 18 8 12 --method closed":
        "4d1c24cb2c747ebfb42e752fc749e39b560006e294fe98e63fc5583d27408d59",
    "gw 12 18 8 12 --method closed --format text":
        "4d1c24cb2c747ebfb42e752fc749e39b560006e294fe98e63fc5583d27408d59",
    "gw 12 18 8 12 --method closed --format json":
        "74f401dea17af60a490250a3a7d17516e35b8a86bafec6142d35e6795f1284a2",
    "gw 12 18 8 12 --method closed --format csv":
        "04d4004e2d5f9b0c4615d74f606736c2a3816c32ea5148f06bfa547dcb15c386",
    "gw 12 18 8 12 --method enumerate":
        "9021f61f88201c9fdd9b1291f3949c1fffb2d586a3bdb9ad1ebea5e455c46030",
    "gw 12 18 8 12 --method enumerate --format text":
        "9021f61f88201c9fdd9b1291f3949c1fffb2d586a3bdb9ad1ebea5e455c46030",
    "gw 12 18 8 12 --method enumerate --format json":
        "e84c9d720e98b97c8ae3a8b00bea749f6f417122ad45a52c98e6444819ce3a09",
    "gw 12 18 8 12 --method enumerate --format csv":
        "ff30d091bff80cfe4074affb13d55c1b94d56467902d67f60a9d8e90f6dda216",
    "gw 12 18 8 12 --method both":
        "d666c9675396639669843a82bdb80749524b6d411587025362192e8a77daad73",
    "gw 12 18 8 12 --method both --format text":
        "d666c9675396639669843a82bdb80749524b6d411587025362192e8a77daad73",
    "gw 12 18 8 12 --method both --format json":
        "36497912a51e41e1ba5b2de4b364a9e8b84b51143d5c9a4dabe60822aee0a7cd",
    "gw 12 18 8 12 --method both --format csv":
        "04130cfbd413fe69937794aaa2dff78a7af4ff0b8c97a40f2b1acea6e75f0e09",
    "gw -4 2 6 -3":
        "dbe237731254b54568db2721594645b720f06d1dc8afffa68beaa08600e98ac1",
    "gw -4 2 6 -3 --format text":
        "dbe237731254b54568db2721594645b720f06d1dc8afffa68beaa08600e98ac1",
    "gw -4 2 6 -3 --format json":
        "49506294aeffd7c1301db2a554f200d4fd35256cfd90d1be4636a14da8f7fa7c",
    "gw -4 2 6 -3 --format csv":
        "5da21a260f31f6ff369d6627f0031b1e7d5583e6074cf18ec594193ef6e2663b",
    "gw -4 2 6 -3 --method closed":
        "c722224ef43c6be0ef7223ce96216efc0e71e457b5f4b651cbf484aba78985ca",
    "gw -4 2 6 -3 --method closed --format text":
        "c722224ef43c6be0ef7223ce96216efc0e71e457b5f4b651cbf484aba78985ca",
    "gw -4 2 6 -3 --method closed --format json":
        "492de881d2a7847a2eec81cc79e98ff343725013889d7dd9b5f02faaa23e793d",
    "gw -4 2 6 -3 --method closed --format csv":
        "056aac78a3e2109585676df7b74ec80504521567295b02c840edabceef9eabb6",
    "gw -4 2 6 -3 --method enumerate":
        "87705610269965a61bb6b6479e4fdb7891ed3e8946a4d78ccc3678014c18885f",
    "gw -4 2 6 -3 --method enumerate --format text":
        "87705610269965a61bb6b6479e4fdb7891ed3e8946a4d78ccc3678014c18885f",
    "gw -4 2 6 -3 --method enumerate --format json":
        "dc7788a2ebab59fe015e33f5725c33b3171647a9723d6866fea26e5f99fb1482",
    "gw -4 2 6 -3 --method enumerate --format csv":
        "84d0db8cc5c36587fce03b82be2b5631f13b88afbdfe1a72d415b31d8aec9232",
    "gw -4 2 6 -3 --method both":
        "dbe237731254b54568db2721594645b720f06d1dc8afffa68beaa08600e98ac1",
    "gw -4 2 6 -3 --method both --format text":
        "dbe237731254b54568db2721594645b720f06d1dc8afffa68beaa08600e98ac1",
    "gw -4 2 6 -3 --method both --format json":
        "49506294aeffd7c1301db2a554f200d4fd35256cfd90d1be4636a14da8f7fa7c",
    "gw -4 2 6 -3 --method both --format csv":
        "5da21a260f31f6ff369d6627f0031b1e7d5583e6074cf18ec594193ef6e2663b",
    "gw 0 0 0 0":
        "54521cbe0993afe417a08315e075aaf8ca294faea2411273a092e126c442161f",
    "gw 0 0 0 0 --format text":
        "54521cbe0993afe417a08315e075aaf8ca294faea2411273a092e126c442161f",
    "gw 0 0 0 0 --format json":
        "d6b4eb6e3e9b531f1a418a636efde314ba6d78fb312c26b2b187921401d1a180",
    "gw 0 0 0 0 --format csv":
        "837727e7a2c55c0ef0e471ed1d4e61596b7f7ccae11a0729482218ebc4b1a2a9",
    "gw 0 0 0 0 --method closed":
        "228031000ff2c82b11ef90cf40450fee6b38369d074079ecd25cdc8e4b70f111",
    "gw 0 0 0 0 --method closed --format text":
        "228031000ff2c82b11ef90cf40450fee6b38369d074079ecd25cdc8e4b70f111",
    "gw 0 0 0 0 --method closed --format json":
        "25b68ad0eab4c5227f4c3e8edd2d911a74c136dd872597efbbf90d1b0a25966a",
    "gw 0 0 0 0 --method closed --format csv":
        "e4ce659427c528efc3c2d1b761df1867ce173d33a6e791a43a2184131a02fe3a",
    "gw 0 0 0 0 --method enumerate":
        "859534fcb0acb0c99cdf81a33e00d05a02d867deecb1acba7cdbb62b9973938a",
    "gw 0 0 0 0 --method enumerate --format text":
        "859534fcb0acb0c99cdf81a33e00d05a02d867deecb1acba7cdbb62b9973938a",
    "gw 0 0 0 0 --method enumerate --format json":
        "da8ef40a2182fca18b4910c0e115e19b0c3b38153effc30f63c67f040c806c7e",
    "gw 0 0 0 0 --method enumerate --format csv":
        "7182cb1f6476a5d19f5f92fba023eddafed4e7fdbb5cb498160febe376056fca",
    "gw 0 0 0 0 --method both":
        "54521cbe0993afe417a08315e075aaf8ca294faea2411273a092e126c442161f",
    "gw 0 0 0 0 --method both --format text":
        "54521cbe0993afe417a08315e075aaf8ca294faea2411273a092e126c442161f",
    "gw 0 0 0 0 --method both --format json":
        "d6b4eb6e3e9b531f1a418a636efde314ba6d78fb312c26b2b187921401d1a180",
    "gw 0 0 0 0 --method both --format csv":
        "837727e7a2c55c0ef0e471ed1d4e61596b7f7ccae11a0729482218ebc4b1a2a9",
    "gw 0 0 3 0":
        "20295330f65c702412fd5a5f1286f47ed9319613cb7e95edbaa2c60bccc96b31",
    "gw 0 0 3 0 --format text":
        "20295330f65c702412fd5a5f1286f47ed9319613cb7e95edbaa2c60bccc96b31",
    "gw 0 0 3 0 --format json":
        "7402ca48d17e9e9139527bafc8fa0c5de424e014e578ba8b8b5857e89d7177a8",
    "gw 0 0 3 0 --format csv":
        "5a95e52057fa67686f8d2db8cc71b63da4e4b71651e2164fd89fca291e5cb0c6",
    "gw 0 0 3 0 --method closed":
        "f1922fd5f0bbd77f506a7b5b8ad65cd3b53f465fb5d24a4a5e8b5ed24175e4ce",
    "gw 0 0 3 0 --method closed --format text":
        "f1922fd5f0bbd77f506a7b5b8ad65cd3b53f465fb5d24a4a5e8b5ed24175e4ce",
    "gw 0 0 3 0 --method closed --format json":
        "16bcef513e83dfe91ac3b1e2eaafabff0e562108eaa511046fbf24655867ecbf",
    "gw 0 0 3 0 --method closed --format csv":
        "ded33710242e1f7a6aa5410546ba5f31345f712c2fcafd5430eb53470e902121",
    "gw 0 0 3 0 --method enumerate":
        "dcf587d25a9c8c9e9d737c3755122f27365d5c4116f2367beb0f802f5237b2fa",
    "gw 0 0 3 0 --method enumerate --format text":
        "dcf587d25a9c8c9e9d737c3755122f27365d5c4116f2367beb0f802f5237b2fa",
    "gw 0 0 3 0 --method enumerate --format json":
        "725d05198889db4a20319dcb706b49afd12f85b2f9643d760b6027a96e3af46c",
    "gw 0 0 3 0 --method enumerate --format csv":
        "97a06b94607e05c0f9d62e6058bad234f31ec51ce5259d5ec42a7088025b113c",
    "gw 0 0 3 0 --method both":
        "20295330f65c702412fd5a5f1286f47ed9319613cb7e95edbaa2c60bccc96b31",
    "gw 0 0 3 0 --method both --format text":
        "20295330f65c702412fd5a5f1286f47ed9319613cb7e95edbaa2c60bccc96b31",
    "gw 0 0 3 0 --method both --format json":
        "7402ca48d17e9e9139527bafc8fa0c5de424e014e578ba8b8b5857e89d7177a8",
    "gw 0 0 3 0 --method both --format csv":
        "5a95e52057fa67686f8d2db8cc71b63da4e4b71651e2164fd89fca291e5cb0c6",
    "gw 1 0 0 1":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --format text":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --format json":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --format csv":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --method closed":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --method closed --format text":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --method closed --format json":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --method closed --format csv":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --method enumerate":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --method enumerate --format text":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --method enumerate --format json":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --method enumerate --format csv":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --method both":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --method both --format text":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --method both --format json":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 1 0 0 1 --method both --format csv":
        "59e14ad82e8cf79a468504c15589d09288f74b4d8d80a1e61b020d01ab49ccc9",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --format text":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --format json":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --format csv":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --method closed":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --method closed --format text":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --method closed --format json":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --method closed --format csv":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --method enumerate":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --method enumerate --format text":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --method enumerate --format json":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --method enumerate --format csv":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --method both":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --method both --format text":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --method both --format json":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw 618970019642690137449562111 618970019642690137449562111 0 0 --method both --format csv":
        "ee951be4261a8414cc69391c223886e1d8404dfa540a4645b8bc940933275c89",
    "gw -3 -3 2 2":
        "fbc2d8e8d8930a463d94a0c44faa4439b22f14c30932b5adb1a7f1ffe72b60d7",
    "gw -3 -3 2 2 --format text":
        "fbc2d8e8d8930a463d94a0c44faa4439b22f14c30932b5adb1a7f1ffe72b60d7",
    "gw -3 -3 2 2 --format json":
        "51e0dc548879362f1302374c02d020fef5e0ecf7b00aedf1e09737d39dac413e",
    "gw -3 -3 2 2 --format csv":
        "706c0f20dd5e7aaca604d36bc8f8dfe736cf9ace3ab018f07878ef124faacaab",
    "gw -3 -3 2 2 --method closed":
        "a29323d4fbb227e6de7d1f05a83e924a6c15b40b88fdaa8ec88819439939c18a",
    "gw -3 -3 2 2 --method closed --format text":
        "a29323d4fbb227e6de7d1f05a83e924a6c15b40b88fdaa8ec88819439939c18a",
    "gw -3 -3 2 2 --method closed --format json":
        "087ebe383a6819044a8bad9fb909f8bebae7665cc64f2e01827d9126935e97a7",
    "gw -3 -3 2 2 --method closed --format csv":
        "0819620b828d0210fbcf37b172bb2721eccafc8670ab8036cd8d0414a748bc40",
    "gw -3 -3 2 2 --method enumerate":
        "4653ab8e77b4c754850d50fa2f889af8b8a927f4df54df643592fb92cc23b061",
    "gw -3 -3 2 2 --method enumerate --format text":
        "4653ab8e77b4c754850d50fa2f889af8b8a927f4df54df643592fb92cc23b061",
    "gw -3 -3 2 2 --method enumerate --format json":
        "b9a4937b4a26e6999764c3b8ec6a094f49ac312167c25f3c786629c4fe1b0362",
    "gw -3 -3 2 2 --method enumerate --format csv":
        "b1d899ed2139c4d2eb34a58265cc29a4f35a9d2992801da03050ea74f1983c01",
    "gw -3 -3 2 2 --method both":
        "fbc2d8e8d8930a463d94a0c44faa4439b22f14c30932b5adb1a7f1ffe72b60d7",
    "gw -3 -3 2 2 --method both --format text":
        "fbc2d8e8d8930a463d94a0c44faa4439b22f14c30932b5adb1a7f1ffe72b60d7",
    "gw -3 -3 2 2 --method both --format json":
        "51e0dc548879362f1302374c02d020fef5e0ecf7b00aedf1e09737d39dac413e",
    "gw -3 -3 2 2 --method both --format csv":
        "706c0f20dd5e7aaca604d36bc8f8dfe736cf9ace3ab018f07878ef124faacaab",
    "gw 0 0 -4 -6":
        "2e185b1efae4d3a9925f97fa1002e8c4444b6169769468d211542917680411ee",
    "gw 0 0 -4 -6 --format text":
        "2e185b1efae4d3a9925f97fa1002e8c4444b6169769468d211542917680411ee",
    "gw 0 0 -4 -6 --format json":
        "aa2aee8f119708b5fc1d8a1a6c99f9c287b47a96ad6beb2bc2d88ae6289a4092",
    "gw 0 0 -4 -6 --format csv":
        "aa4c72d3386ddc944df3394d678e2ed7fd0dfd32f15f957cb27091ff0690e0a5",
    "gw 0 0 -4 -6 --method closed":
        "1cfc4b16e83de3c848e1d843bd2a283b05bc5539683dac791038a1007cf097a0",
    "gw 0 0 -4 -6 --method closed --format text":
        "1cfc4b16e83de3c848e1d843bd2a283b05bc5539683dac791038a1007cf097a0",
    "gw 0 0 -4 -6 --method closed --format json":
        "2397e493efc45d2b1206f9fa3e3ed79028ab636a8b7e2e01f40a43e8b737d920",
    "gw 0 0 -4 -6 --method closed --format csv":
        "418141a2c64d0672b5a7e81cd42aabfa440e2d006b76897e2584572acde72609",
    "gw 0 0 -4 -6 --method enumerate":
        "8400406c3ae27bad6fdd24c002b0fff2ac7044529c1be012e82dca3640fa5e5c",
    "gw 0 0 -4 -6 --method enumerate --format text":
        "8400406c3ae27bad6fdd24c002b0fff2ac7044529c1be012e82dca3640fa5e5c",
    "gw 0 0 -4 -6 --method enumerate --format json":
        "88352582b9d045622b4070c5e9b960b225064dd578293b15889709c4557a6766",
    "gw 0 0 -4 -6 --method enumerate --format csv":
        "461acb626497c1bf0c6bef33f937210ae6f89d75d4e998b04a36fe45bb5db990",
    "gw 0 0 -4 -6 --method both":
        "2e185b1efae4d3a9925f97fa1002e8c4444b6169769468d211542917680411ee",
    "gw 0 0 -4 -6 --method both --format text":
        "2e185b1efae4d3a9925f97fa1002e8c4444b6169769468d211542917680411ee",
    "gw 0 0 -4 -6 --method both --format json":
        "aa2aee8f119708b5fc1d8a1a6c99f9c287b47a96ad6beb2bc2d88ae6289a4092",
    "gw 0 0 -4 -6 --method both --format csv":
        "aa4c72d3386ddc944df3394d678e2ed7fd0dfd32f15f957cb27091ff0690e0a5",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725":
        "e015b6929a3551531cf90b3d8fba3c271989b8fdfd0a0c726b7d8a1f939c6e56",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --format text":
        "e015b6929a3551531cf90b3d8fba3c271989b8fdfd0a0c726b7d8a1f939c6e56",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --format json":
        "2c4c5a440035de754863f7e960ae9527a106dc5be7233ba540e21d11b6371a93",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --format csv":
        "dd0060f40e060231db3b7a58b7d13a6390a37502e19820abd69b587bf943c7d6",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --method closed":
        "d893c1c527cc444173dd1b527233a55e693e2dda14b7420a68fda22f3f887a55",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --method closed --format text":
        "d893c1c527cc444173dd1b527233a55e693e2dda14b7420a68fda22f3f887a55",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --method closed --format json":
        "9f8d78c64aeed848a7fc701e0910cbce53f3e7b5d02c769b784d7bdad978d398",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --method closed --format csv":
        "e157f1f462143cae3560f183530b9cef1047c313aab6f3afb25ef205904f2dcd",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --method enumerate":
        "69f0a46c39dd0e726ff38d0686a9f3dfde3986d4ba3924ba93ef7f558c236d03",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --method enumerate --format text":
        "69f0a46c39dd0e726ff38d0686a9f3dfde3986d4ba3924ba93ef7f558c236d03",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --method enumerate --format json":
        "f52695388e12d67fe6b04c4e53c2aa641049ed78fdc2e3d1c20fba453028f00a",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --method enumerate --format csv":
        "706b9f0b189994b261085ebe3be9cbf7be05d92c2e38da3e809129c85fa3227e",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --method both":
        "e015b6929a3551531cf90b3d8fba3c271989b8fdfd0a0c726b7d8a1f939c6e56",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --method both --format text":
        "e015b6929a3551531cf90b3d8fba3c271989b8fdfd0a0c726b7d8a1f939c6e56",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --method both --format json":
        "2c4c5a440035de754863f7e960ae9527a106dc5be7233ba540e21d11b6371a93",
    "gw 1848369127020774 1142354944254810 -10782153240954515 -6663737174819725 --method both --format csv":
        "dd0060f40e060231db3b7a58b7d13a6390a37502e19820abd69b587bf943c7d6",
    "moduli -2 -2 --format text":
        "7c7f84ce371f6792d460ade5b76eff96147d15f4f8b85187ba0ed2a82bc98e58",
    "moduli -2 -1 --format json":
        "1d762532db71cdfe60ad96be5fb4e3e6de3a9e52dee11a7c75a3f35f295ae5a5",
    "moduli -2 0 --format csv":
        "d1c6439caa8f1359eac292f1f4d0a06e46b654368eb449db5c9ebdf1f6147203",
    "moduli -2 1 --format text":
        "fd1e8f64885f83c63e9edef2f8057b44e067fd812adac8e0fd851e869b8bade2",
    "moduli -2 2 --format json":
        "57249abeb9d3462d159d56c68cd5322e61e0794c341c11baf272b5b1359f2ab6",
    "moduli -1 -2 --format csv":
        "9ec9f90dc081cf0080cad88441daebe289733bfb5e78d8b6ff7529b7c1e323c5",
    "moduli -1 -1 --format text":
        "9075d0e7b4d2b7ba09c017defbdbd93ff7f794cb2b741963c5865c812c1686f1",
    "moduli -1 0 --format json":
        "5241e0ecc9e8fa91b2af6c152172433368a05fddababf3aa52d98dfa3fee3a31",
    "moduli -1 1 --format csv":
        "9358bc640bed0d256492ac4b1ea662fc6bc70cbc4dcdeb6a8124348b71f63a05",
    "moduli -1 2 --format text":
        "ba8642f63483bdca084fc50e1d03f35c4267f0a3ffef2de3bd341f63ab49171c",
    "moduli 0 -2 --format json":
        "a87f6270f41e48178e3938875aa29a2687683912f2ef0a257497c0205e504ab6",
    "moduli 0 -1 --format csv":
        "a87f6270f41e48178e3938875aa29a2687683912f2ef0a257497c0205e504ab6",
    "moduli 0 0 --format text":
        "a87f6270f41e48178e3938875aa29a2687683912f2ef0a257497c0205e504ab6",
    "moduli 0 1 --format json":
        "a87f6270f41e48178e3938875aa29a2687683912f2ef0a257497c0205e504ab6",
    "moduli 0 2 --format csv":
        "a87f6270f41e48178e3938875aa29a2687683912f2ef0a257497c0205e504ab6",
    "moduli 1 -2 --format text":
        "1a9908f4f787646f2609e769dbbd034f963f992e7b8135d9f325acebdafad744",
    "moduli 1 -1 --format json":
        "a1283561f6e34d7311e15ba741ec721962b494f742a4e87718051d0cf4d4dc5a",
    "moduli 1 0 --format csv":
        "c9f6c681dbd781b4fd443196f17a9cd3d2a6e1d02213321bc0ca90b52718c7c1",
    "moduli 1 1 --format text":
        "e677cc47a222848c4982aa5f213fbcdcf18c5eebcad55f6c57a053d9ebcdc7d4",
    "moduli 1 2 --format json":
        "fe5e67a04b2cb38962d428e1bbaec71ae9990dbbeb1bd972301a58373c4621c3",
    "moduli 2 -2 --format csv":
        "f4014cf8c5a396afb172a6d56a485e0e98324042ea329ab28479707520982d90",
    "moduli 2 -1 --format text":
        "00a10ba0a8a62ef6eb9b952e6788637b9616806259d74673004b03e038b764b6",
    "moduli 2 0 --format json":
        "0753a6bafb3a970905a5520f49452a9a52d975c0cca9089727fe31be6065b999",
    "moduli 2 1 --format csv":
        "bd2dd7a2f06d53136c4800944ae1a3042b2a1852b9b48a75fb5eb7b404709e84",
    "moduli 2 2 --format text":
        "8a4d7d2bccc85fe0e7ba3b62012fdf44c94947fa906db4c82647ad13908d2929",
    "verify identities --max 2":
        "d9a27b389e1a866e610754bdbe18faecfc15de88743402dc1e1e543b71932770",
    "verify oracle --max 2":
        "836c0730bb43cdb2bc90b7e5ffbfaefeff8b58e4e0ea79f403e1ff2a5401c3d3",
    "verify geometry --max 2":
        "c16369cbb7eb79d1f8c14e1835f83c8b832758440f003c0d76720bcbd04f0875",
    "verify all --max 2":
        "d5500fb3227083c3320691e97180e29a6335484e0daf8b40633cacced36a1514",
    "verify identities --max 0":
        "24bc1c0439d467dcbdc2c11ca52963533d37da7f236e589d003d77bf9e1001d3",
    "verify geometry --max 8":
        "2128da3433cd57a2652de6528db04550f468c7cb9074be2f640017e4853d113b",
    "verify oracle --max 8":
        "a2d8376542a75a55c1e34230ffc22537286a488050f05b2fcf6873e1f0ffc4f2",
    "moduli 120 0 --format json":
        "1b86c92633af0695f12e59e5cd85aca15205e929459a748a2cd76e1db6f015c2",
    "moduli -36 24 --format text":
        "6d7d0bf82e1cab5eb1674651aec53a9329af998589723eaa4431b603dcba049f",
    "moduli -8 -8 --format csv":
        "555db41358066a254c5e5bf6bf956e43f829abb210c37d8439e9878db86b6f42",
    "moduli 1 20000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000":
        "cb8f703ef81fdf9461e01b0358ae4f08b5058d27db1e31b9d50958a547bb167c",
    "moduli 1 1000000000000 --format json":
        "bccfe1e99015fde9ab4eac2352931009f507aaa82e7234ebecc7f828a0bda6a5",
    "moduli 12 12 --format json":
        "ade9e796ae5d7ca39e74d68bc846c2b90dfe58d71df9ba79a291af1ce73b8715",
    "moduli 1 1000000000000 --format csv":
        "1d934335a48f053076b39c8b88e82f3788bf6d99d5894d573db64fe0f0e9f268",
    "moduli 12 12 --format csv":
        "0e61a9ca9b256ff4be5d7860114d8781790904185f62053012ba2dc13003e991",
    "moduli -7 3 --format json":
        "3f731fc342b28e7eac47845706e3d0c3d8e04cd0ae0d85ac3e9e730e877de704",
    "moduli 60 -36 --format json":
        "36b3676649219bd90142b8e63eb3c6ff5fef19c29e76129c7e0be0124687e73c",
    "moduli 60 -36 --format text":
        "fce66ad0d28b618a3cae706adae09f4eb168634260c3ece3a3bbc27b4a3aabac",
    "moduli -9 6 --format json":
        "b520ba53f065c249ba38cca89757b73cb755e7d2ca8f580e9ada08c1a339afdd",
    "gw 1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 1 1 --method closed --format text":
        "c3063a64bb7835451a73a1b8b73bd6af9357e84c44c29216d09f1779da80d304",
    "gw 1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 1 1 --method closed --format json":
        "c3063a64bb7835451a73a1b8b73bd6af9357e84c44c29216d09f1779da80d304",
    "gw 1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 1 1 --method closed --format csv":
        "c3063a64bb7835451a73a1b8b73bd6af9357e84c44c29216d09f1779da80d304",
    "gw 1000000000 1000000000 0 0 --method enumerate":
        "3c3a0de2d9b5192f2fc6e058a5ff77cc5e3d80cb1797cf8b3ccb6d4a5eb8bc24",
    "gw 1000000000 1000000000 0 0 --method both":
        "db29649939daa582495dac5738bac06d651041317dc65c42b4177c8fd08b49d6",
    "gw 963761198400 963761198400 0 0":
        "2caeeb0c7ec875dede832c84e5450c7877a29dc6c3c9a590f29346c1cbe4dbd2",
    "baseline 30":
        "a7a032224f82338823fbf48d57610b47e07d86caaf591cd44688ab5d5b400d32",
    "baseline 30 --format text":
        "a7a032224f82338823fbf48d57610b47e07d86caaf591cd44688ab5d5b400d32",
    "baseline 30 --format json":
        "8f53575f73be9164a5f588b076cbbe204451180008327e8162ed58324fdc0e64",
    "baseline 30 --format csv":
        "e5b80275e4498271597eb1f084410957f64e8c222ec064efb091e28fe307444b",
    "baseline 0":
        "1d6958a75f8fc1cc63de5748ea8ca2341f7d2aa0d9b9d0a46f363743caf962c1",
    "baseline 0 --format json":
        "1d6958a75f8fc1cc63de5748ea8ca2341f7d2aa0d9b9d0a46f363743caf962c1",
    "gw 2 4 1 2 --format=json":
        "c3cc13566f06bfb60d76b249c48fc65c6f2c96b804dcf31f2ba1b69b453ade25",
    "gw 2 4 1 2 --meth closed --form csv":
        "26c8101a0c9323aff21bce17757ba20d58442482fbe54d47d201b2b258f2e3f0",
    "gw +6 6 4 4":
        "642f21a17808e342097d752d921ae074307f42bd2f6e2d2ab201a155924cae39",
    "moduli 1_2 0":
        "4ec104c4ea2cdd9a5b15f5cdc1a34327c33a9111b4d67f7ab69e667bdd1f065e",
    "moduli ٣ 0 --format csv":
        "25eee36e69e0e7f038e12ec45e3f1ba82e7176d570b574b299c5b29b1be107e9",
    "gw --format json 6 6 4 4":
        "828ee859342bd28db7a5b954c6b105a85e71b718e970251a304caa2a2770dd48",
    "gw 6 6 --method closed 4 4":
        "026a9c44eb8b16f8df4424c712ffd44781123be1c2eb524aee8fd8a7a2566f97",
    "verify identities --m 3":
        "f0b3b29db9192168ae49c11bc5b003978c270873a174ec278c35461e67fb7020",
    "verify identities --max=3":
        "f0b3b29db9192168ae49c11bc5b003978c270873a174ec278c35461e67fb7020",
    "gw 6 6 4 4 --format csv --format json":
        "828ee859342bd28db7a5b954c6b105a85e71b718e970251a304caa2a2770dd48",
    "verify identities --max 9 --max 2":
        "d9a27b389e1a866e610754bdbe18faecfc15de88743402dc1e1e543b71932770",
}


def test_outputs_match_golden_table():
    argvs = [" ".join(argv) for argv in golden_argvs()]
    assert sorted(argvs) == sorted(GOLDEN)
    changed = [argv for argv in argvs if digest(argv.split()) != GOLDEN[argv]]
    assert changed == []


if __name__ == "__main__":
    print("GOLDEN = {")
    for argv in golden_argvs():
        print(f'    "{" ".join(argv)}":\n        "{digest(argv)}",')
    print("}")
