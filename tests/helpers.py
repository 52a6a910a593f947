"""Plain record builders shared by the test modules."""

import json


def detection(video_id="v", frame=0, class_id=1, bbox=(10.0, 10.0, 50.0, 50.0),
              depth=2.0, feature=(1.0, 0.0), motion=None):
    return {
        "video_id": video_id,
        "frame_index": frame,
        "class_id": class_id,
        "bbox": list(bbox),
        "depth": depth,
        "feature": list(feature),
        "motion_feature": None if motion is None else list(motion),
    }


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path
