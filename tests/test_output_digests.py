"""Byte-identity guard: fixed command lines print exactly the recorded bytes.

Every digest is the sha256 of one command's standard output, recorded with
numpy 2.4 and OpenBLAS 0.3.31 on x86-64.  A refactor of the payload or the
renderers must leave every one unchanged; a deliberate change of output
records the new digests, which the failure message lists.  A different BLAS
may round the last digit of a float differently and so change a digest too.
The cycling truncate (hubbard, 4 sites, 3 electrons, --mu 2) is left out:
where it stops after 100 unconverged iterations moves with the last bit.
"""

import contextlib
import hashlib
import io

from fermipin.cli import main

DIGESTS = {
    "solve --model pairing --levels 4 --G 0.5 --N 4 --sz 0 --format table":
        "6e448fba214d1d6f533718d0453867a035715ba92b881fed847b01c8bfa925ca",
    "solve --model pairing --levels 4 --G 0.5 --N 4 --sz 0 --format json":
        "f6c6896f627725ccd3eaa93e401c13916a71b4203d09f917ce7d8d0d4b9702f4",
    "solve --model pairing --levels 4 --G 0.5 --N 4 --sz 0 --format csv":
        "ccff49c183e1c4029ec86f577a6974d7be68eb1328201793734f78e5d39e3e07",
    "analyze --model hubbard --sites 3 --N 3 --sz 1 --U 2 --format table":
        "e0a3d8ad5c975bf554083e1c3a089344e6cd32232d8dee9401a94f6aab6d7702",
    "analyze --model hubbard --sites 3 --N 3 --sz 1 --U 2 --format json":
        "8480d23e2ab08b680fe38bf465e6978e41f0a9cabed43f0140051993eba8922f",
    "analyze --model hubbard --sites 3 --N 3 --sz 1 --U 2 --format csv":
        "e79115cb34ea24a9f7f8b8897df5f431b9eca3fbeb916b010a1b0f405f5f9e88",
    "analyze --model pairing --levels 4 --G 0.5 --N 4 --sz 0 --format table":
        "debe39809159713f2398138538107e3a0ce35d48b9153410341a1c14a38c8244",
    "analyze --model pairing --levels 4 --G 0.5 --N 4 --sz 0 --format json":
        "2d9ebceab5043bfa5dbcafdb3f2c57c273c02cf84e233a8677ce35567cc1268c",
    "analyze --model pairing --levels 4 --G 0.5 --N 4 --sz 0 --format csv":
        "8007639a8239dd4a378386b8cf79ed568b712319024f6359631681d854d532e0",
    "census --N 3 --m 6 --with-equalities --mu 1 --format table":
        "131e08b732e67251cf4ac1560fbc081ccbd51e31a82f09f3f01e2a4d0ebee02b",
    "census --N 3 --m 6 --with-equalities --mu 1 --format json":
        "d8c8671cd3c162f72c72a1aa5ffca7d55568c657651d0d50cfda87f8f9e80442",
    "census --N 3 --m 6 --with-equalities --mu 1 --format csv":
        "883ff15306a1822ed604f48fc495b6b22c5748d1b1ae5dd4fbf836e25760e24c",
    "truncate --model hubbard --sites 3 --N 3 --sz 1 --U 2 --mu auto --format table":
        "79712014eac7e27cff58eb278a656436d4470e4615e002ac87bf7460da5b30cf",
    "truncate --model hubbard --sites 3 --N 3 --sz 1 --U 2 --mu auto --format json":
        "e776489d5c1061050ae20cbcfcdab0c573afe17ace08ddd263bdadb5aee3040a",
    "truncate --model hubbard --sites 3 --N 3 --sz 1 --U 2 --mu auto --format csv":
        "4664c64dc9c6086fce930f0f51f05e659ba58a4d074657ce1d379feb9150ea05",
    "scan --model hubbard --sites 3 --N 3 --sz 1 --scan U=0:8:9 --format table":
        "fcb62981af906387cb1ea836b167f75a4d11fc50cb96b8f7415ce6ffeda4ae17",
    "scan --model hubbard --sites 3 --N 3 --sz 1 --scan U=0:8:9 --format json":
        "0aefe5305cf64cc011be92df900f5e81d68ed4d2d6f9717ad2d6ce5a991cf945",
    "scan --model hubbard --sites 3 --N 3 --sz 1 --scan U=0:8:9 --format csv":
        "02dc1c47f5a91dd5bc2a1bd85a473ebe109bb16aa40751276a02f29239582dd3",
    "polytope --N 3 --m 6 --random 3 --seed 42 --format table":
        "92bb3fba1274fd9ae099fabf9e273a142c159a6e3827dbcf50082b5b2376f7e8",
    "polytope --N 3 --m 6 --random 3 --seed 42 --format json":
        "40cf43e49eb0f95f33cc82306557e181e241aebeb735d137cf12a652cf006acc",
    "polytope --N 3 --m 6 --random 3 --seed 42 --format csv":
        "ce98bbd65fa4b98520ee976e28cdc4556e5665c33ab604486ce28e98ce8ee1af",
    "polytope --N 3 --m 8 --random 2 --seed 1 --format table":
        "f9c1baf08cc94cbced9da86856abb2b4380c24d79a1ad6908395672b090a1f4c",
    "polytope --N 3 --m 8 --random 2 --seed 1 --format json":
        "8f55991f2a1612ff2260b156a853ec77ad4eeb3c221bd5dced958b1173ddaa12",
    "polytope --N 3 --m 8 --random 2 --seed 1 --format csv":
        "1ac1da6d9928feb0ba1e011c4264f080598ebfd44ea9b5f7b67794e02553e6c0",
    # the benchmark's survey report: 352 905 bytes, recorded when
    # json.dumps(indent=2) printed it
    "polytope --N 3 --m 8 --random 100 --seed 1 --format json":
        "d41007f51961bb3af6239eb8c9e3928f5a3aa01e108a0dd2847714fafe2e01ef",
    "truncate --model hubbard --sites 4 --U 4.0 --N 4 --sz 0 --mu 1 --format json":
        "f4d970dd3e4344a25ca99178466f425c0c36164f0ca1ffe9cab42dc41f0174c1",
    "truncate --model pairing --levels 4 --G 0.5 --N 4 --sz 0 --mu 5 --format json":
        "e2fdca054fca3c026e17cf4a90accfa7931a048faae6cb76b761b746f8555027",
    "truncate --model hubbard --sites 3 --U 2.0 --N 3 --sz 1 --mu auto --format json":
        "e776489d5c1061050ae20cbcfcdab0c573afe17ace08ddd263bdadb5aee3040a",
    # no --sz: the full 70-determinant space, whose frames keep its masks
    "truncate --model hubbard --sites 4 --U 4.0 --N 4 --mu 1 --format json":
        "eec5eeb7d44d6863dbe53fb796c2e5a5b3e650c91b8199f916e8b73d4b7e2e07",
    # pinned_solve loops of several iterations, each iteration a solve,
    # a 1-RDM, a spectrum and a rotation: 9 iterations, then 4 (blocked)
    "truncate --model hubbard --sites 4 --U 2.0 --N 3 --sz 1 --mu 2 --format json":
        "a95c7f2250815258572c57905ddfd3943504e41865b5f2b1b7a74596379234ce",
    "truncate --model hubbard --sites 4 --U 2.0 --N 3 --sz 1 --mu 2 --ordering blocked "
    "--format json":
        "af534c250b9be74fb5f57e5418058a61428c337c00412155380b4104f8d71cff",
    # 28 iterations, converged; tie-sensitive like the cycling truncate at
    # U = 4 (ROADMAP item 1): near-tied occupations decide each frame's
    # order, so a last-bit change anywhere in the loop can move this digest
    "truncate --model hubbard --sites 4 --U 3.0 --N 3 --sz 1 --mu 2 --format json":
        "e0ef03d419b6ff6afb5e32dc9f309e609f4690c4ecdd316878fc1b5668eb132d",
    # 3 iterations in the blocked ordering
    "truncate --model hubbard --sites 4 --U 4.0 --N 4 --sz 0 --mu 1 --ordering blocked "
    "--format json":
        "cb3f890fcc9e32d0a620c16df6cb9ecd8bf29e9e11f2893c7903f9e7ad710e57",
    # 1 225 determinants: the only entries above ci.DENSE_CROSSOVER, so the
    # only ones that reach a sparse solver, the filtered Davidson on alpha
    # strings times beta strings, whose signs depend on the ordering; both
    # print one energy
    "solve --model hubbard --sites 7 --U 4 --N 7 --sz 1 --format json":
        "1140a573fd8985eb9e9e2fe16837963875046d16d3c4fbe0985dfc0f538ef639",
    "solve --model hubbard --sites 7 --U 4 --N 7 --sz 1 --ordering blocked --format json":
        "9ce667926fe4514d4bc826203bef03d93b4e7db6ab98eeb4684a61ece31808c3",
}


def test_fixed_command_lines_print_the_recorded_bytes() -> None:
    changed = {}
    for command, digest in DIGESTS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(command.split()) == 0, command
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if got != digest:
            changed[command] = got
    assert not changed, changed
