"""The MoNDE programming model (Section 3.4), end to end.

Demonstrates the full host/device path of Fig. 4(a):

1. the driver loads expert weights into the device's even banks,
2. ``actin.monde()``-style AMove of input activations (odd banks),
3. ``gemm+relu`` / ``gemm`` kernels compiled into 64-byte CXL
   instructions, wrapped in NDP-flagged RwD flits,
4. the CXL controller routes them to the NDP controller, which drives
   the cycle-level systolic engine and raises the done register,
5. results AMoved back and checked against NumPy.

Run:  python examples/ndp_programming_model.py
"""

import numpy as np

from repro.core.driver import MoNDEDriver
from repro.core.instructions import NDPInstruction, Opcode

D_MODEL, D_FF = 256, 1024


def main() -> None:
    rng = np.random.default_rng(7)
    driver = MoNDEDriver()

    # -- MoE layer initialization: experts live in device memory ----
    w1 = rng.normal(0, 0.05, size=(D_MODEL, D_FF))
    w2 = rng.normal(0, 0.05, size=(D_FF, D_MODEL))
    handle = driver.load_expert(0, w1, w2, activation="relu")
    print(f"expert 0 loaded: w1@{handle.w1.addr:#012x} w2@{handle.w2.addr:#012x}")

    layout = driver.device.layout
    bank_parities = {
        layout.mapper.decode(a).bank % 2
        for a in layout.block_addresses(handle.w1)[:64].tolist()
    }
    print(f"expert weight blocks bank parity: {bank_parities} (even banks)")

    # -- Inspect the wire format ------------------------------------
    inst = NDPInstruction(
        opcode=Opcode.GEMM_RELU,
        actin_addr=0x1000, actin_size=4 * D_MODEL * 2,
        wgt_addr=handle.w1.addr, wgt_size=D_MODEL * D_FF * 2,
        actout_addr=0x2000, actout_size=4 * D_FF * 2,
        m=4, n=D_FF, k=D_MODEL, expert_id=0,
    )
    raw = inst.encode()
    print(f"\n64-byte NDP instruction ({len(raw)} bytes):")
    print("  " + raw.hex()[:64] + "...")
    decoded = NDPInstruction.decode(raw)
    print(f"  decoded: {decoded.opcode.name} m={decoded.m} n={decoded.n} "
          f"k={decoded.k} expert={decoded.expert_id}")

    # -- AMove + kernel launch + done polling ------------------------
    tokens = rng.normal(size=(4, D_MODEL))  # 4 routed tokens (cold expert)
    actin = driver.offload(tokens)
    parities = {
        layout.mapper.decode(a).bank % 2
        for a in layout.block_addresses(actin.allocation)[:16].tolist()
    }
    print(f"\nactivations offloaded, bank parity: {parities} (odd banks)")

    out, device_seconds = driver.run_expert(0, actin)
    result = driver.to_host(out)
    expected = np.maximum(tokens @ w1, 0) @ w2
    print(f"done register raised: {driver.cxl.poll_done()}")
    print(f"device time for 4-token expert: {device_seconds*1e6:.1f} us")
    print(f"matches NumPy reference: {np.allclose(result, expected)}")

    # -- The cold-expert economics, measured on this device ----------
    expert_bytes = (w1.nbytes + w2.nbytes)
    print(f"\nAMove volume: {2 * tokens.nbytes} bytes "
          f"vs PMove volume: {expert_bytes} bytes "
          f"({expert_bytes / (2 * tokens.nbytes):.0f}x reduction)")


if __name__ == "__main__":
    main()
