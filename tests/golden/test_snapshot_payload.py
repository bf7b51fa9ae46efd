"""Pinned serve-session snapshot payloads.

A snapshot blob is what a migration ships from one gateway to another,
and the two may run different versions of the program: a change to any
member's bytes is a change of the wire format.  Tests that compare
blobs within one checkout cannot see that, so this module pins, for
fp32 and fp16qm sessions after 0, 17 and 40 served frames, the SHA-256
of every decompressed member of the blob over its name, dtype, shape
and raw bytes.  The members are pinned rather than the zip bytes,
which depend on the zlib build.  Both backends must write the pinned
members.

A deliberate change of the payload is a change of the snapshot format:
it edits ``PINS`` in the commit that explains it.  A failure names the
member and its new digest.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np
import pytest

from repro.serve import SessionManager, SessionSpec

SCENARIO = "office:1:flight_s=8"

#: ``variant@frames`` -> member -> digest, for session ``snap`` replaying
#: ``SCENARIO`` at N = 64 under seed 4.
PINS = {
    "fp32@0": {
        "serve_meta": "e3136e3dceba9970fa49cd009e0f7bd1b18f2054bd4e794c2d8221ed6e1ddd31",
        "state_estimate": "313f9510cb27ec9ea9f5fe31a1b2f76c922b3335d806277f8195494e552a813a",
        "state_pending": "684466032e1e0fde12d8be4709c73daf9be054117e05c4da15d2e68eebbf02d3",
        "state_rng": "b9a402ac39b18917582305b6d943f771f3d88f2f7b783c4f7206832bb2d6955b",
        "state_theta": "f757a84efb2b8476183e6b31c1b5935b47cb8581f1672aa30f1d77238983ad18",
        "state_update_count": "09a4f0aa4ebde94be57335699f5d8eed0a00939af07c4b7b85fc498dbd2dd90d",
        "state_weights": "372d430b3dfac40bb207f0b4df990a7ca41e3caecf41fdaea9e557d0fd9f71d0",
        "state_x": "bfbb854bbc24bfe2f84f84c224a3d60dcb42f25526f81cb11d52b63427f5e67e",
        "state_y": "8f8b9e0127b0f38ea38e94a98a72b0821d25ad2247c55e69e2da1948ababf33a",
        "trace_estimates": "a3069fabcb514bf971aaae6355eaa19e6887b8e11b0159add880bfdc6defa21f",
        "trace_position_errors": "7232444cf42c972cb15a9de7e1781262d454a9a93897e4ea1f59d02cf5d6872c",
        "trace_timestamps": "e15f5993fd3fa8025fc8cfde9a320c28b37b3bba693e0a18c977f85ca261e91a",
        "trace_yaw_errors": "b0319bc85681ed90bcb8efcfdcd6a45803fc5ff9ecc1dd25d3497d1101633c32",
    },
    "fp32@17": {
        "serve_meta": "7426dc834b2fb9193c936443702bfd3a4227ff2b4d1260f44e9f02b676efa64d",
        "state_estimate": "2aa3650ff76881005e6cea145caacad79aa721657520da4288f1233a281f7374",
        "state_pending": "684466032e1e0fde12d8be4709c73daf9be054117e05c4da15d2e68eebbf02d3",
        "state_rng": "ca381eb13a0cbd672c3dff2f81944a87d02591a85bab040492e463c76a5d766d",
        "state_theta": "4e01e5993e07f7c354d07f855e70dc5cfdcf1cd30eaab8400b5d2c4fcfbc42a9",
        "state_update_count": "609a96e1d641b1ec72b585dfeea62427dd3c9fe74295ca9ef2781f89db3213bc",
        "state_weights": "372d430b3dfac40bb207f0b4df990a7ca41e3caecf41fdaea9e557d0fd9f71d0",
        "state_x": "2740772a85f3afee8dfe78a32ebe42ba38af43c591fd80ba9f99be659d913fab",
        "state_y": "f36d20941e98f6c75796f0ccbedbee5d1ded5f11ad6f288404e29bcc745caa81",
        "trace_estimates": "46ab63cc1d8ebae40967eac059c80db0075a1126b03f20578fdd512068e9bde1",
        "trace_position_errors": "380486d53c458ba6029498c429b5d3b8427b2172feeefd477ca99c5c60d515f5",
        "trace_timestamps": "a6f14588690d7d8ba1a0c028e519dff5fa03c18f290aad978e3006b2c1b43bb6",
        "trace_yaw_errors": "27afa740a71e2ebf6618b77950ea37c558e50fe71c599f9d2a789beb754e3966",
    },
    "fp32@40": {
        "serve_meta": "c1cbce1941abb1124c668dae14e5d1bc74abd790e47a07864a6eaaf8b7003e54",
        "state_estimate": "70b89ce98a49a910dd99bff3c38381e878aed2e1f1fb89ab8195862488749874",
        "state_pending": "684466032e1e0fde12d8be4709c73daf9be054117e05c4da15d2e68eebbf02d3",
        "state_rng": "4eeab4e84fd323003e708d3fb68f79bcf2f62e422f9b7d2cca850f56a1d924a7",
        "state_theta": "7ae7f6f6c80300c046669c09ae48c09b98555965e17d64822da81f02a642e18a",
        "state_update_count": "8c2cc98cc4805044d3ecd04995843927aba65fa00cc00774305c1a83a0f041e4",
        "state_weights": "372d430b3dfac40bb207f0b4df990a7ca41e3caecf41fdaea9e557d0fd9f71d0",
        "state_x": "1f20a8af466f1a232b62ac093179f3b251af3c56858014ef945a9e59815c15d4",
        "state_y": "65ee9f54af6344e0dd8aaf09526f1682687ea1966e302f258aec4415e4d2fba8",
        "trace_estimates": "868f9f73b7bf6905bdb422c8f35d105818037e168a2c112261c37bf0bf95988e",
        "trace_position_errors": "3ad90ac917cb5d703f865ea8532b5bd70b630b0c96ce8cac94101737fe18644b",
        "trace_timestamps": "a179553da5eca2bc8cc1be7409c98ee4157c90588d3cded03ff6cfbe87d91231",
        "trace_yaw_errors": "6295d83a3d175fc17e14815928394d03845867178f0f1c83e6a651fef9751720",
    },
    "fp16qm@0": {
        "serve_meta": "3d4bae2fca8dc183e254e77138446703b3e0b93afed2f411ed64a2f3f6df7572",
        "state_estimate": "de39641bbee1ce89811e540168da7a13e583c7f4ed60b7c0561f7482fe01cb9a",
        "state_pending": "684466032e1e0fde12d8be4709c73daf9be054117e05c4da15d2e68eebbf02d3",
        "state_rng": "b9a402ac39b18917582305b6d943f771f3d88f2f7b783c4f7206832bb2d6955b",
        "state_theta": "bc8f38681182c0bc39a352bb44826fea838083f3a6ec8e219c2d58bb9a2c62bc",
        "state_update_count": "09a4f0aa4ebde94be57335699f5d8eed0a00939af07c4b7b85fc498dbd2dd90d",
        "state_weights": "c722ba25aded4e8c598cc1cbe438b3b08cf48a2aa0ec97abc52e62e88c5f42ab",
        "state_x": "1a05a7a69ea02308e2322b4d3c742b0efd31a103f2ae27447c31b862a4692880",
        "state_y": "d5bc92bb7f800dae76e7467e80c98a5b3aa339cbea31bfec0a5ab7062ebb8ca6",
        "trace_estimates": "a3069fabcb514bf971aaae6355eaa19e6887b8e11b0159add880bfdc6defa21f",
        "trace_position_errors": "7232444cf42c972cb15a9de7e1781262d454a9a93897e4ea1f59d02cf5d6872c",
        "trace_timestamps": "e15f5993fd3fa8025fc8cfde9a320c28b37b3bba693e0a18c977f85ca261e91a",
        "trace_yaw_errors": "b0319bc85681ed90bcb8efcfdcd6a45803fc5ff9ecc1dd25d3497d1101633c32",
    },
    "fp16qm@17": {
        "serve_meta": "fa04c02edc37abfb441ddbe4d9696ac3f06b832440a20097e1b154bed0ada66e",
        "state_estimate": "79f7c5587afe2534a4b70c3883869bc556305594fda0f1a7d6739da0c83c42e5",
        "state_pending": "684466032e1e0fde12d8be4709c73daf9be054117e05c4da15d2e68eebbf02d3",
        "state_rng": "ca381eb13a0cbd672c3dff2f81944a87d02591a85bab040492e463c76a5d766d",
        "state_theta": "7e16fbb11c2b016418a519685a0ec82c0072b8ffa20304b0acd1eeb4a1f11992",
        "state_update_count": "609a96e1d641b1ec72b585dfeea62427dd3c9fe74295ca9ef2781f89db3213bc",
        "state_weights": "c722ba25aded4e8c598cc1cbe438b3b08cf48a2aa0ec97abc52e62e88c5f42ab",
        "state_x": "80fda6a1215a92a312267270cb6efed321e537976d3d94b6d5f1f81c1ee89b83",
        "state_y": "4c0894eb7dabe2797f3d2df64bdfe0839b86a4e87bcd1717b25a63c4fbb97fe9",
        "trace_estimates": "1e622ed13fb7802657aa83c0e22781cee966b1b7817f56cd224e646728685bed",
        "trace_position_errors": "331f12fbd876d4372bc9fcb49dd131a54e75064a06c14626e61576c30029e9b5",
        "trace_timestamps": "a6f14588690d7d8ba1a0c028e519dff5fa03c18f290aad978e3006b2c1b43bb6",
        "trace_yaw_errors": "76f3511960db724bf388688e33e23fe08a4075bb911c3565bf55db1d511ee1b4",
    },
    "fp16qm@40": {
        "serve_meta": "0c1420e808db4562b6fa1fe89029e5211870afc2b07727c213629138db87c404",
        "state_estimate": "33a049cbed01788c236b0d78672913b8169693bfe1bcfce83f19a106c726e2ef",
        "state_pending": "684466032e1e0fde12d8be4709c73daf9be054117e05c4da15d2e68eebbf02d3",
        "state_rng": "4eeab4e84fd323003e708d3fb68f79bcf2f62e422f9b7d2cca850f56a1d924a7",
        "state_theta": "93407ecb2ad2b817e29367b904ba7dfc5d513f05647a8accb3cc1a79a9a72afe",
        "state_update_count": "8c2cc98cc4805044d3ecd04995843927aba65fa00cc00774305c1a83a0f041e4",
        "state_weights": "c722ba25aded4e8c598cc1cbe438b3b08cf48a2aa0ec97abc52e62e88c5f42ab",
        "state_x": "f2d0dc3ff765b3288f5a32bf309f207581425e529d0cd8ca37181cde0c8b3911",
        "state_y": "82fc5c7845c536949a8f7c1af4ce0989008455905b2c262be16bde8b90116d6e",
        "trace_estimates": "5a8713650e94a350b8d40cc84aa006c13d10f299f3f586356a564a624145adff",
        "trace_position_errors": "375de10971feed335b3b7543ccb4aaf38bb98961d1bcdc28546b117686e9f8f2",
        "trace_timestamps": "a179553da5eca2bc8cc1be7409c98ee4157c90588d3cded03ff6cfbe87d91231",
        "trace_yaw_errors": "be23bde248d6085869ba0d367e69471068ce3e72271e49187fde5cfca0773ba5",
    },
}


def _digest(name: str, array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    sha = hashlib.sha256()
    sha.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
    sha.update(array.tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("backend", ["fast", "reference"])
@pytest.mark.parametrize("case", sorted(PINS))
def test_snapshot_members(case, backend):
    variant, frames = case.split("@")
    manager = SessionManager(backend)
    manager.create(SessionSpec("snap", SCENARIO, variant, 64, seed=4))
    manager.submit("snap", int(frames))
    manager.flush()
    with np.load(io.BytesIO(manager.snapshot("snap"))) as archive:
        members = {name: _digest(name, archive[name]) for name in archive.files}
    assert sorted(members) == sorted(PINS[case])
    for name, digest in PINS[case].items():
        assert members[name] == digest, f"{case}: {name} is {members[name]}"
