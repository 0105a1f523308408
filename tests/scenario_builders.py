"""Programmatic scenario construction shared across the test modules."""

from __future__ import annotations

from pqnetsim import model


def make_profile(
    name: str,
    enc: float = 0.0,
    dec: float = 0.0,
    kind: model.CryptoKind = model.CryptoKind.KEM,
) -> model.CryptoProfile:
    return model.CryptoProfile(
        name=name,
        kind=kind,
        t_encrypt=enc,
        t_decrypt=dec,
        public_key_bytes=800,
        ciphertext_or_sig_bytes=768,
        claimed_security_bits=128,
    )


def make_node(
    node_id: str,
    role: model.NodeRole,
    t_coh: float,
    profile: model.CryptoProfile,
    tier: model.MemoryTier = model.MemoryTier.SHORT_LIVED,
) -> model.NodeSpec:
    return model.NodeSpec(id=node_id, role=role, memory=model.MemorySpec(t_coh, tier), crypto=profile)


def two_party_scenario(
    protocol: model.Protocol = model.Protocol.SINGLE_HOP,
    p_success: float = 1.0,
    enc: float = 0.0,
    comm: float = 0.0,
    dec: float = 0.0,
    t_coh_end: float = 1.0,
    t_coh_far: float = 1.0,
    base_fidelity: float = 0.95,
    rounds_l: int = 1,
    slot_duration: float = 0.001,
    seed: int = 7,
    n_trials: int = 10,
    adversary: model.AdversaryConfig | None = None,
) -> model.ScenarioConfig:
    """Two end nodes joined by one link; 'bob' (sorts later) receives."""
    sender = make_node("alice", model.NodeRole.END_NODE, t_coh_far, make_profile("sender-profile", enc=enc))
    receiver = make_node("bob", model.NodeRole.END_NODE, t_coh_end, make_profile("receiver-profile", dec=dec))
    link = model.QuantumLinkSpec(("alice", "bob"), gen_rate=1000.0, p_success=p_success, base_fidelity=base_fidelity)
    return model.ScenarioConfig(
        nodes=(sender, receiver),
        quantum_links=(link,),
        classical_channels={model.pair_key("alice", "bob"): model.ClassicalChannelSpec(comm, 0.0)},
        protocol=protocol,
        seed=seed,
        n_trials=n_trials,
        slot_duration=slot_duration,
        rounds_l=rounds_l,
        adversary=adversary,
    )


def chain_scenario(
    message_timings: list[tuple[float, float]],
    dec_end: float = 0.0,
    t_coh_end: float = 1.0,
    t_coh_far: float = 1.0,
    t_coh_repeater: float | list[float] = 1.0,
    p_success: float | list[float] = 1.0,
    base_fidelity: float | list[float] = 0.95,
    slot_duration: float = 0.001,
    seed: int = 7,
    n_trials: int = 10,
    adversary: model.AdversaryConfig | None = None,
) -> model.ScenarioConfig:
    """Repeater chain alice - r1 .. rK - bob; one (enc, comm) pair per repeater.

    ``message_timings[i]`` gives repeater i's encryption time and its
    classical delay toward bob, who is the designated receiver.
    """
    n_reps = len(message_timings)
    assert n_reps >= 1
    n_links = n_reps + 1

    def spread(value, count):
        return list(value) if isinstance(value, list) else [value] * count

    rep_tcoh = spread(t_coh_repeater, n_reps)
    link_p = spread(p_success, n_links)
    link_fid = spread(base_fidelity, n_links)

    nodes = [make_node("alice", model.NodeRole.END_NODE, t_coh_far, make_profile("far-profile"))]
    for i, (enc, _comm) in enumerate(message_timings):
        nodes.append(
            make_node(
                f"r{i + 1}",
                model.NodeRole.REPEATER,
                rep_tcoh[i],
                make_profile(f"rep{i + 1}-profile", enc=enc),
            )
        )
    nodes.append(make_node("bob", model.NodeRole.END_NODE, t_coh_end, make_profile("end-profile", dec=dec_end)))

    path_ids = [n.id for n in nodes]
    links = tuple(
        model.QuantumLinkSpec(
            (path_ids[j], path_ids[j + 1]), gen_rate=1000.0, p_success=link_p[j], base_fidelity=link_fid[j]
        )
        for j in range(n_links)
    )
    channels = {
        model.pair_key(f"r{i + 1}", "bob"): model.ClassicalChannelSpec(comm, 0.0)
        for i, (_enc, comm) in enumerate(message_timings)
    }
    return model.ScenarioConfig(
        nodes=tuple(nodes),
        quantum_links=links,
        classical_channels=channels,
        protocol=model.Protocol.PARALLEL_CHAIN,
        seed=seed,
        n_trials=n_trials,
        slot_duration=slot_duration,
        adversary=adversary,
    )


def chain_document(n_repeaters: int) -> dict:
    """A valid ``parallel_chain`` scenario document, as a user writes it, over the shipped profiles.

    ``a_end - r0001 - ... - z_end``, with a channel from every repeater to ``z_end``.  Two values
    sit on a bound of their declared range: ``p_success`` 1 and ``processing_delay`` 0.
    """
    reps = [f"r{i:04d}" for i in range(1, n_repeaters + 1)]
    ids = ["a_end", *reps, "z_end"]
    profiles = [p.name for p in model.default_registry().profiles()]

    def node(i, node_id):
        role = "end_node" if node_id.endswith("_end") else "repeater"
        memory = {"t_coh": 0.1 if role == "end_node" else 0.05, "tier": "short_lived"}
        return {"id": node_id, "role": role, "memory": memory, "crypto": profiles[i % len(profiles)]}

    return {
        "nodes": [node(i, node_id) for i, node_id in enumerate(ids)],
        "quantum_links": [
            {"endpoints": [a, b], "gen_rate": 1000.0, "p_success": 1.0, "base_fidelity": 0.97}
            for a, b in zip(ids, ids[1:])
        ],
        "classical_channels": {f"{r},z_end": {"propagation_delay": 0.0004, "processing_delay": 0.0} for r in reps},
        "protocol": "parallel_chain",
        "rounds_l": 1,
        "adversary": None,
        "seed": 12345,
        "n_trials": 10,
        "slot_duration": 0.001,
    }
