"""Golden recordings: the exact digest and virtual recording delay of
``repro.record(model, recorder=r, network="wifi", seed=1)`` for the six
paper workloads under all four recorder variants.

Recordings must stay byte-identical across changes to the simulated
hardware and driver (the MMU, the page-table writer, memory
bookkeeping); any change to a digest here is a change to what the cloud
ships and must be deliberate.
"""

import pytest

import repro

GOLDEN = {
    ("mnist", "Naive"): (
        "41a5cbf1fa4d4651211592fee0b685bccf0e697bba9b8731e7c8f18e4f1b644c",
        21.988666877714707),
    ("mnist", "OursM"): (
        "cae9c3d7b8fd0dc913a0785aa31b75ed83dab9cb09766a064230dd2d07575425",
        21.810456277714692),
    ("mnist", "OursMD"): (
        "6478f63177e85eb868581a126bdb83e36733e2ffdbb97f094876862f81c91a90",
        12.161540977714315),
    ("mnist", "OursMDS"): (
        "27e5ec827c8c493a3a17a90f4e9f1d4120199aac7f4f7ce82397cd9c2a88256f",
        4.092156299999965),
    ("alexnet", "Naive"): (
        "ea5ded51e7b0bf99da1c8c189f543b53eba2f120ec67183041e1bca45b4ac7fd",
        72.89976960477803),
    ("alexnet", "OursM"): (
        "a76b7644d774022c971a2acae49ff7fb9618af65632d7dceb1237485b6856f5a",
        60.726686804775674),
    ("alexnet", "OursMD"): (
        "a76c811e0a464bd5ae2269377f3abb71b12710e336a2187c57c72729fa813c5c",
        33.38147730477836),
    ("alexnet", "OursMDS"): (
        "e63dc9ff0dabbce72afdd738caa1e339f00ae7242b29f20dfad971be310297de",
        9.430225799999887),
    ("mobilenet", "Naive"): (
        "f971230f65c9c5f44a675abb982a15c1d581dcbdcd03a36a6bde416535913495",
        212.67313104350683),
    ("mobilenet", "OursM"): (
        "84536c38398f5c3a29c86a8bcf11410b68252b2193d04a0b84584a452d761308",
        208.46223234350578),
    ("mobilenet", "OursMD"): (
        "28453fb898070138abbd58f1346994920b006bb4776636b12619e1ef281bc512",
        113.73497954349551),
    ("mobilenet", "OursMDS"): (
        "89a09867bae85ae8682645de6790e3275a3bf1dd40ba59d8a8917a88912b195a",
        29.408070150006616),
    ("squeezenet", "Naive"): (
        "9c905a7afc34ba42c68928b59158fae1586003bd33d5c8998cf1f78c78304e06",
        161.93121927185422),
    ("squeezenet", "OursM"): (
        "7ff5b8a902fbd2f31bbf4bd13497aca12f915c5f47317412dc2717692a5aed81",
        159.2491589718536),
    ("squeezenet", "OursMD"): (
        "69f53122981fae036238df98a2d3b10ae4a14d664f123c18f49d102c200e2c67",
        86.98258727184029),
    ("squeezenet", "OursMDS"): (
        "8ac7e6ea22f625b01404e7ec652bfbe7e3be41715f54db56c56fe8c87e074eda",
        22.780039800003305),
    ("resnet12", "Naive"): (
        "544922d8c3a04db741f4ba2804dd40b0b14d2194383c532a7c230c230bb29bbc",
        122.51690162672766),
    ("resnet12", "OursM"): (
        "ab46b8eb631683c33b75754945f4a2ae128ef2d8419751d430e2ac5637d2123a",
        118.92280052672687),
    ("resnet12", "OursMD"): (
        "c52863d9de5fd3288bb31a3c309bf369a22d9edf1c4b1217d96a289bb0e7b244",
        65.0331497267111),
    ("resnet12", "OursMDS"): (
        "4b22d83b42d546635fb72e542ab6560ba5b45ba5961381d9b7a691d9bff0d910",
        17.296090950000618),
    ("vgg16", "Naive"): (
        "fc25b9a35915398e9cff528408ae336c06532b33ca70ca21bba49094e9ac3b12",
        158.1504538123486),
    ("vgg16", "OursM"): (
        "0af584b7476e2de30f4c2d410d7bb996bcf590dcdcfbaf53609a24ab8c5cae3d",
        138.71529071234437),
    ("vgg16", "OursMD"): (
        "b970b774079e1e2915266b7b1dcfc88d9218198913a162c66d9b1ae99d346cad",
        75.97749281232943),
    ("vgg16", "OursMDS"): (
        "60e6bf631bd268b6984a318593022ece96fc7fa3d624ff5e4c82eb822d9640c2",
        20.01250510690758),
}


@pytest.mark.parametrize("model,recorder", sorted(GOLDEN))
def test_recording_is_golden(model, recorder):
    result = repro.record(model, recorder=recorder, network="wifi", seed=1)
    digest, delay_s = GOLDEN[(model, recorder)]
    assert result.stats.recording_digest == digest
    assert result.stats.recording_delay_s == delay_s
