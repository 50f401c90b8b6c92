import numpy as np
import pytest

from fos import synthdata
from fos.fpca import consistent_mass
from fos.kernels import default_deformation_kernel
from fos.lddmm import InitialMomenta, flow_points, shoot
from fos.pipeline import ConfigError, PipelineConfig
from fos.synthdata import (SimSpec, c_shape_images, ellipsoid_patch,
                           generate_dataset, graph_geodesic_distances,
                           icosphere, make_modes, make_template, refine_mesh)


def test_icosphere_counts_and_radius():
    for level, nv in ((0, 12), (1, 42), (2, 162)):
        mesh = icosphere(level)
        assert mesh.n_vertices == nv
        assert np.allclose(np.linalg.norm(mesh.vertices, axis=1), 1.0)
    # closed surface: Euler characteristic 2
    mesh = icosphere(2)
    n_edges = 3 * mesh.n_faces // 2
    assert mesh.n_vertices - n_edges + mesh.n_faces == 2


def test_ellipsoid_patch_has_boundary():
    mesh = ellipsoid_patch(2)
    assert mesh.boundary_vertices.any()
    assert mesh.vertices[:, 2].min() >= 0.0


def test_refine_mesh_keeps_parent_vertices_first():
    mesh = ellipsoid_patch(1)
    fine = refine_mesh(mesh)
    assert fine.n_faces == 4 * mesh.n_faces
    assert np.allclose(fine.vertices[:mesh.n_vertices], mesh.vertices)


def test_graph_geodesic_distances_properties():
    mesh = icosphere(2)
    d = graph_geodesic_distances(mesh, 0)
    assert d[0] == 0.0
    assert np.all(d > 0) or d.min() == 0.0
    # edge-path distance dominates the chord
    chord = np.linalg.norm(mesh.vertices - mesh.vertices[0], axis=1)
    assert np.all(d >= chord - 1e-12)


def test_make_modes_orthonormal_and_localized():
    spec = SimSpec(n=2, subdivisions=1, observation_subdivisions=0)
    ds = generate_dataset(spec)
    gram = ds.kernel.gram(ds.template.vertices)

    def vdot(a, b):
        return float(np.sum((gram @ b) * a))

    m = ds.modes
    assert np.isclose(vdot(m.psi1_g.momenta, m.psi1_g.momenta), 1.0)
    assert np.isclose(vdot(m.psi2_g.momenta, m.psi2_g.momenta), 1.0)
    assert abs(vdot(m.psi1_g.momenta, m.psi2_g.momenta)) <= 1e-8
    # unit peak amplitude of the functional mode
    assert np.isclose(np.abs(m.psi1_f.values).max(), 1.0)
    # mean keeps its baseline away from the features
    assert m.mu.values.min() >= 2.5 - 1e-9
    # the functional mode peaks away from the mean's largest feature
    assert np.argmax(m.psi1_f.values) != np.argmax(m.mu.values)


def test_generate_dataset_shapes_and_determinism():
    spec = SimSpec(n=4, subdivisions=1, seed=3)
    ds1 = generate_dataset(spec)
    ds2 = generate_dataset(spec)
    assert len(ds1.meshes) == 4 and len(ds1.fields) == 4
    assert ds1.scores.shape == (4, 2)
    assert ds1.true_x.shape == (4, ds1.template.n_vertices)
    assert ds1.true_vertex_images.shape == (4, ds1.template.n_vertices, 3)
    for a, b in zip(ds1.meshes, ds2.meshes):
        assert np.array_equal(a.vertices, b.vertices)
    for a, b in zip(ds1.fields, ds2.fields):
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(ds1.scores, ds2.scores)

    other = generate_dataset(SimSpec(n=4, subdivisions=1, seed=4))
    assert not np.array_equal(other.scores, ds1.scores)


def test_generate_dataset_observation_mesh_refines_template():
    spec = SimSpec(n=2, subdivisions=1, observation_subdivisions=1)
    ds = generate_dataset(spec)
    k = ds.template.n_vertices
    assert ds.observation_template.n_vertices > k
    assert np.array_equal(ds.observation_template.vertices[:k],
                          ds.template.vertices)
    assert ds.meshes[0].n_vertices == ds.observation_template.n_vertices


def test_make_modes_refuses_an_approximate_template_block():
    spec = SimSpec(subdivisions=1)
    template = make_template(spec)
    kernel = default_deformation_kernel(template)
    obs = refine_mesh(template)
    make_modes(template, kernel, 0, obs)
    moved = obs.vertices.copy()
    moved[3, 1] += 1e-12
    with pytest.raises(ValueError, match="refine the template"):
        make_modes(template, kernel, 0, obs.with_vertices(moved))


# with no refinement the tail is empty and each subject mesh is the images
@pytest.mark.parametrize("observation_subdivisions", [1, 0])
def test_subject_meshes_take_the_template_images_from_the_shoot(
        observation_subdivisions):
    spec = SimSpec(n=3, subdivisions=1, seed=2,
                   observation_subdivisions=observation_subdivisions)
    ds = generate_dataset(spec)
    k = ds.template.n_vertices
    obs = ds.observation_template
    for i, (a1, a2) in enumerate(ds.scores):
        alpha = a1 * ds.modes.psi1_g.momenta + a2 * ds.modes.psi2_g.momenta
        path = shoot(InitialMomenta(ds.template.vertices, alpha, ds.kernel),
                     spec.shooting_steps)
        assert np.array_equal(path.points[-1], ds.true_vertex_images[i])
        assert np.array_equal(path.points[-1], ds.meshes[i].vertices[:k])
        assert np.array_equal(flow_points(path, obs.vertices[k:]),
                              ds.meshes[i].vertices[k:])


def test_generate_dataset_no_inverted_faces():
    spec = SimSpec(n=6, subdivisions=1, seed=0)
    ds = generate_dataset(spec)
    for mesh in ds.meshes:
        dots = np.sum(ds.observation_template.face_normals
                      * mesh.face_area_normals, axis=1)
        assert np.all(dots > 0.0)


def test_field_noise_level():
    spec = SimSpec(n=30, subdivisions=1, seed=1)
    ds = generate_dataset(spec)
    k = ds.template.n_vertices
    resid = np.stack([f.values[:k] for f in ds.fields]) \
        - np.stack([ds.true_x[i] for i in range(spec.n)])
    # interpolationless residual at template vertices is not available
    # (subjects live on deformed meshes), so check the marginal spread of
    # the observed values around the deformed-sample mean instead
    obs = np.stack([f.values for f in ds.fields])
    assert obs.std() > spec.sigma_noise  # noise plus signal variation
    assert resid.shape == (spec.n, k)


def test_mean_function_reproducible_between_resolutions():
    # the modes live on the observation mesh; the noiseless fields at the
    # template vertices are their first K values
    spec = SimSpec(n=2, subdivisions=1, observation_subdivisions=1)
    ds = generate_dataset(spec)
    k = ds.template.n_vertices
    m = ds.modes
    assert m.mu.mesh is ds.observation_template
    assert m.psi1_f.mesh is ds.observation_template
    for i in range(spec.n):
        x = m.mu.values + spec.delta * ds.scores[i, 1] * m.psi1_f.values
        assert np.array_equal(ds.true_x[i], x[:k])


def test_folded_draw_is_redrawn_from_the_same_stream(monkeypatch):
    spec = SimSpec(n=2, subdivisions=1, seed=5)
    plain = generate_dataset(spec)
    calls = []

    def fold_first(mesh, vertices):
        calls.append(1)
        return np.ones(1, bool) if len(calls) == 1 else np.zeros(1, bool)

    monkeypatch.setattr(synthdata, "folded_faces", fold_first)
    redrawn = generate_dataset(spec)
    # subject 0 takes the next normal pair of its own generator
    rng = np.random.default_rng((spec.seed, 0))
    rng.normal(size=2)
    expected = (rng.normal(0.0, spec.sigma1), rng.normal(0.0, spec.sigma2))
    assert np.array_equal(redrawn.scores[0], expected)
    assert not np.array_equal(redrawn.scores[0], plain.scores[0])
    # subject 1 has its own generator and is untouched
    assert np.array_equal(redrawn.scores[1], plain.scores[1])
    assert np.array_equal(redrawn.fields[1].values, plain.fields[1].values)


def test_generator_gives_up_after_20_failed_draws(monkeypatch):
    calls = []

    def always_folded(mesh, vertices):
        calls.append(1)
        return np.ones(1, bool)

    monkeypatch.setattr(synthdata, "folded_faces", always_folded)
    with pytest.raises(RuntimeError, match="subject 0"):
        generate_dataset(SimSpec(n=2, subdivisions=1))
    assert len(calls) == 20


def test_c_shape_images_ranges():
    mesh = icosphere(3)
    moving, fixed = c_shape_images(mesh)
    for img in (moving, fixed):
        vals = img.values if hasattr(img, "values") else np.asarray(img)
        assert vals.min() >= -1e-9 and vals.max() <= 1.0 + 1e-9
        assert vals.max() > 0.5


def test_simspec_validation():
    with pytest.raises(ValueError):
        SimSpec(n=1)
    with pytest.raises(ValueError):
        SimSpec(sigma1=0.0)
    # the closed template does not register, so no template is offered
    with pytest.raises(TypeError):
        SimSpec(template="sphere")
    with pytest.raises(ConfigError, match=r"unknown simulate keys: "
                       r"\['template'\]"):
        PipelineConfig.from_dict({"simulate": {"template": "sphere"}})
