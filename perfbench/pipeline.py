"""The whole bevkit detector, put together from the library's public functions.

LiDAR voxel branch -> LiDAR BEV; camera encoder -> depth net -> ray stream and
upsample -> point stream -> camera BEV; BEV fusion -> heatmap -> candidates ->
general decoder, task-specific features, modulation fusers -> main and
auxiliary heads; depth, heatmap and Hungarian-matched losses; backward.

Every call goes through a module attribute (``vt.ray_stream``, not a name
imported into this file), so a tracer that rebinds module attributes sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from bevkit import lidar_pipeline as lp
from bevkit import losses
from bevkit import numerics as nm
from bevkit import predictor as pr
from bevkit import view_transform as vt
from bevkit.layers import attention_init, conv_init, ffn_init, linear_init
from bevkit.numerics import LinearParams, Tensor

CHANNELS = 16  # C: every BEV and query feature
IMAGE_CHANNELS = 4
CAMERA_STRIDE = 2  # camera encoder stride; the HR upsample undoes it
CAM_EMBED = 8
HR_CHANNELS = 8
VOXEL_CHANNELS = 8
HIDDEN = 32
CLASS_COUNT = 10
WEIGHTS = losses.LossWeights()


@dataclass(frozen=True)
class DetectorParams:
    voxel_encoder: lp.VoxelEncoderParams
    z_proj: LinearParams
    camera_encoder: vt.CameraEncoderParams
    depth_net: vt.DepthNetParams
    upsample: LinearParams
    camera_fuse: vt.BevFuseParams
    bev_fuse: pr.BevFuserParams
    heatmap: pr.HeatmapParams
    decoder: pr.DecoderParams
    task_features: pr.TaskFeatureParams
    fuse_cls: pr.FuserParams
    fuse_box: pr.FuserParams
    heads: pr.HeadParams
    aux_heads: pr.HeadParams


def _conv3(rng, out_c, in_c, stride=1):
    return conv_init(rng, out_c, in_c, kernel=3, stride=stride, pad=1)


def _fuser(rng):
    c = CHANNELS
    return pr.FuserParams(
        gamma_s=linear_init(rng, c, 2 * c),
        beta_s=linear_init(rng, c, 2 * c),
        gamma_g=linear_init(rng, c, 2 * c),
        beta_g=linear_init(rng, c, 2 * c),
        out=linear_init(rng, c, 2 * c),
    )


def _heads(rng):
    return pr.HeadParams(
        classifier=ffn_init(rng, CLASS_COUNT, HIDDEN, CHANNELS),
        box=ffn_init(rng, pr.BOX_DIM, HIDDEN, CHANNELS),
    )


def init_params(rng, z_count: int, depth_bins: int) -> DetectorParams:
    """Uniform fan-in initialisation of every block; z_count sizes the z projection."""
    c = CHANNELS
    up = CAMERA_STRIDE * CAMERA_STRIDE * HR_CHANNELS
    return DetectorParams(
        voxel_encoder=lp.VoxelEncoderParams(
            hidden=linear_init(rng, c, 5), out=linear_init(rng, VOXEL_CHANNELS, c)
        ),
        z_proj=linear_init(rng, c, z_count * VOXEL_CHANNELS),
        camera_encoder=vt.CameraEncoderParams(
            conv1=_conv3(rng, c, IMAGE_CHANNELS, stride=CAMERA_STRIDE), conv2=_conv3(rng, c, c)
        ),
        depth_net=vt.DepthNetParams(
            cam_embed=linear_init(rng, CAM_EMBED, 4),
            context=linear_init(rng, c, c + CAM_EMBED),
            depth=linear_init(rng, depth_bins, c + CAM_EMBED),
        ),
        upsample=linear_init(rng, up, c),
        camera_fuse=vt.BevFuseParams(conv1=_conv3(rng, c, c + HR_CHANNELS), conv2=_conv3(rng, c, c)),
        bev_fuse=pr.BevFuserParams(conv1=_conv3(rng, c, 2 * c), conv2=_conv3(rng, c, c)),
        heatmap=pr.HeatmapParams(conv1=_conv3(rng, c, c), conv2=_conv3(rng, CLASS_COUNT, c)),
        decoder=pr.DecoderParams(
            class_embed=Tensor(rng.uniform(-0.1, 0.1, size=(CLASS_COUNT, c))),
            attn=attention_init(rng, c),
            ffn=ffn_init(rng, c, HIDDEN, c),
        ),
        task_features=pr.TaskFeatureParams(
            cam_conv1=_conv3(rng, c, c),
            cam_conv2=_conv3(rng, c, c),
            lidar_conv1=_conv3(rng, c, c),
            lidar_conv2=_conv3(rng, c, c),
            attn=attention_init(rng, c),
            ffn_class=ffn_init(rng, c, HIDDEN, 2 * c),
            ffn_box=ffn_init(rng, c, HIDDEN, 2 * c),
        ),
        fuse_cls=_fuser(rng),
        fuse_box=_fuser(rng),
        heads=_heads(rng),
        aux_heads=_heads(rng),
    )


@dataclass(frozen=True)
class BevStage:
    """Everything up to and including candidate selection, kept for the gate."""

    lr_feats: list
    contexts: list
    dists: list
    hr_feats: list
    ray_bev: Tensor
    point_bev: Tensor
    b_c: Tensor
    b_l: Tensor
    b_f: Tensor
    heatmap: Tensor
    cands: pr.CandidateSet


def bev_stage(params: DetectorParams, sample, wl) -> BevStage:
    middle = lp.encode_voxels(lp.voxelize(sample.cloud, wl.voxel), params.voxel_encoder)
    b_l = lp.compress_z(middle, params.z_proj)
    lr_feats, contexts, dists, hr_feats = [], [], [], []
    for image, cam in zip(sample.images, sample.cams):
        lr = vt.camera_encode(image, params.camera_encoder)
        lr_feats.append(lr)
        ctx, dist = vt.depth_net(lr, cam, params.depth_net)
        contexts.append(ctx)
        dists.append(dist)
        hr_feats.append(vt.upsample_hr(lr, params.upsample, CAMERA_STRIDE))
    ray_bev = vt.ray_stream(contexts, dists, sample.cams, wl.bins, wl.bev)
    point_bev = vt.point_stream(sample.cloud, hr_feats, sample.cams, wl.bev)
    b_c = vt.fuse_camera_bev(ray_bev, point_bev, params.camera_fuse)
    b_f = pr.fuse_bev(b_c, b_l, params.bev_fuse)
    heatmap = pr.heatmap_head(b_f, params.heatmap)
    cands = pr.select_candidates(heatmap, wl.k)
    return BevStage(
        lr_feats, contexts, dists, hr_feats, ray_bev, point_bev, b_c, b_l, b_f, heatmap, cands
    )


def head_stage(params: DetectorParams, bev: BevStage, wl, with_aux: bool):
    """(main HeadOutput, aux HeadOutput or None) for the stage's candidates."""
    f_g = pr.decode_general(bev.b_f, bev.cands, params.decoder)
    f_cls, f_box = pr.task_specific_features(bev.b_c, bev.b_l, bev.cands, params.task_features)
    q_cls = pr.task_specific_fuse(f_g, f_cls, params.fuse_cls)
    q_box = pr.task_specific_fuse(f_g, f_box, params.fuse_box)
    main = pr.subtask_heads(q_cls, q_box, params.heads, bev.cands, wl.bev)
    aux = pr.subtask_heads(f_cls, f_box, params.aux_heads, bev.cands, wl.bev) if with_aux else None
    return main, aux


def depth_loss(bev: BevStage, sample, wl) -> Tensor:
    gts = [vt.depth_ground_truth(sample.cloud, cam, wl.bins, CAMERA_STRIDE) for cam in sample.cams]
    return vt.depth_loss_multi(bev.dists, gts)


def step_loss(bev: BevStage, main, aux, depth: Tensor, sample, wl) -> Tensor:
    """Scalar total loss of one training step."""
    return losses.total_loss(
        main, aux, bev.cands, bev.heatmap, sample.scene.boxes, wl.bev, WEIGHTS, depth=depth
    )[0]


@dataclass(frozen=True)
class StepResult:
    bev: BevStage
    main: pr.HeadOutput
    aux: pr.HeadOutput | None
    loss: Tensor | None
    tape: nm.Tape | None = None


def forward(params: DetectorParams, sample, wl, train: bool) -> StepResult:
    """Detector forward; with train, also the auxiliary heads and the total loss."""
    bev = bev_stage(params, sample, wl)
    main, aux = head_stage(params, bev, wl, with_aux=train)
    loss = step_loss(bev, main, aux, depth_loss(bev, sample, wl), sample, wl) if train else None
    return StepResult(bev, main, aux, loss)


def train_step(params: DetectorParams, sample, wl, on_tape=None) -> StepResult:
    """Forward, total loss and backward on one sample; parameters are not updated.

    on_tape, when given, sees the finished tape before backward runs.
    """
    with nm.Tape() as tape:
        out = forward(params, sample, wl, train=True)
        if on_tape is not None:
            on_tape(tape)
        nm.backward(tape, out.loss)
    return replace(out, tape=tape)


def infer_step(params: DetectorParams, sample, wl) -> StepResult:
    """Tape-free forward to decoded main-head detections."""
    return forward(params, sample, wl, train=False)


def with_box_bias(params: DetectorParams, bias: Tensor) -> DetectorParams:
    """params with the main box head's output bias replaced."""
    box = params.heads.box
    heads = replace(params.heads, box=replace(box, out=LinearParams(box.out.weight, bias)))
    return replace(params, heads=heads)

