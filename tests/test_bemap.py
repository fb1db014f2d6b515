from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capstation.core.bemap import BeMapKV, ComponentId, ComponentValue, ValueKind, build_bemap
from capstation.devices import SpatialVariationSet
from capstation.errors import DuplicateKeyError


def kv(key, value):
    return (ComponentId(key), ComponentValue(value))


def test_lookup_returns_the_stored_value():
    contact = build_bemap([kv("Name", "Elon Musk"), kv("Address", "Mars")])
    assert contact.get(ComponentId("Address")) == ComponentValue("Mars")
    assert len(contact.entries) == 2


def test_lookup_on_empty_map_is_absent():
    assert BeMapKV(()).get(ComponentId("x")) is None


def test_integer_values_round_trip_through_lookup():
    pins = build_bemap([kv("GPIO", 1)])
    assert pins.get(ComponentId("GPIO")) == ComponentValue(1)


def test_duplicate_keys_rejected():
    with pytest.raises(DuplicateKeyError) as err:
        build_bemap([kv("A", 1), kv("A", 2)])
    assert err.value.key == ComponentId("A")


def test_component_id_must_be_non_empty():
    with pytest.raises(ValueError):
        ComponentId("")


def test_value_kind_tags():
    assert ComponentValue("x").kind is ValueKind.STRING
    assert ComponentValue(5).kind is ValueKind.INTEGER
    variations = SpatialVariationSet("x", ("a", "b"))
    assert ComponentValue(variations).kind is ValueKind.VARIATIONS
    with pytest.raises(TypeError):
        ComponentValue(True)
    with pytest.raises(TypeError):
        ComponentValue(3.14)


unique_entries = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(st.text(max_size=8), st.integers(-1000, 1000)),
    min_size=0,
    max_size=8,
).map(lambda d: [kv(k, v) for k, v in d.items()])


@given(unique_entries)
def test_build_then_lookup_round_trips_every_entry(entries):
    mapping = build_bemap(entries)
    for key, value in entries:
        assert mapping.get(key) == value
    assert mapping.entries == tuple(entries)
