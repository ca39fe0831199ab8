from __future__ import annotations

import pytest

from geniesim.model import (
    DetectedObject,
    Header,
    ImageRef,
    Message,
    ObjectList,
    PayloadKind,
    Topic,
)

IMAGE = Topic("/image", PayloadKind.IMAGE)
OBJECTS = Topic("/objects", PayloadKind.OBJECTS)


def image_message(content_id: str, origin: str = "car1/camera", seq: int = 0, stamp: float = 0.0) -> Message:
    return Message(Header(origin, seq, stamp), IMAGE, ImageRef(content_id))


def obj(label: str, conf: float, loc: tuple[float, float, float], from_map: bool = False) -> DetectedObject:
    return DetectedObject(label, conf, loc, (1.0, 1.0, 1.0), from_map)


def objects_message(
    objs: tuple[DetectedObject, ...], origin: str = "car1/camera", seq: int = 0, stamp: float = 0.0
) -> Message:
    return Message(Header(origin, seq, stamp), OBJECTS, ObjectList(objs))


def count_scans(store, monkeypatch) -> list:
    """Count the neighbourhood scans ``store.augment`` computes: its
    ``_cells_near`` calls, one per answer built for a payload not scanned
    since the map last gained a cell."""
    calls = []
    scan = store._cells_near

    def spy(points):
        calls.append(points)
        return scan(points)

    monkeypatch.setattr(store, "_cells_near", spy)
    return calls


@pytest.fixture
def img_msg():
    return image_message("frame-000")
